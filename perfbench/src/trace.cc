#include "trace.h"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

double
Tracer::since_origin_us(TimePoint t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void
Tracer::span(const char *cat, const std::string &name, TimePoint t0,
             TimePoint t1, Lane lane)
{
    if (!enabled_) {
        return;
    }
    const double ts = since_origin_us(t0);
    eva2::MutexLock lock(mutex_);
    spans_.push_back({cat, name, ts, since_origin_us(t1) - ts, lane, 0});
}

void
Tracer::async_span(const char *cat, const std::string &name, u64 id,
                   TimePoint t0, TimePoint t1, Lane lane)
{
    if (!enabled_) {
        return;
    }
    const double ts = since_origin_us(t0);
    eva2::MutexLock lock(mutex_);
    spans_.push_back(
        {cat, name, ts, since_origin_us(t1) - ts, lane, id + 1});
}

i64
Tracer::size() const
{
    eva2::MutexLock lock(mutex_);
    return static_cast<i64>(spans_.size());
}

namespace {

const char *
lane_name(Lane lane)
{
    switch (lane) {
    case kLaneGenerator:
        return "load generator";
    case kLaneEngine:
        return "engine latency";
    case kLaneReplay:
        return "serial replay (AMC stages)";
    case kLaneLayers:
        return "single-layer plans";
    case kLaneFrames:
        return "client frame latency";
    }
    return "other";
}

/** Span names are benchmark-chosen identifiers; escape defensively. */
std::string
escaped(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out;
}

} // namespace

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write trace file " + path);
    }
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const Lane lane : {kLaneGenerator, kLaneEngine, kLaneReplay,
                            kLaneLayers, kLaneFrames}) {
        out << (first ? "" : ",\n")
            << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":"
            << lane << ",\"args\":{\"name\":\"" << lane_name(lane)
            << "\"}}";
        first = false;
    }
    eva2::MutexLock lock(mutex_);
    for (const Span &s : spans_) {
        const std::string head = std::string("{\"name\":\"") +
                                 escaped(s.name) + "\",\"cat\":\"" +
                                 s.cat + "\",\"pid\":1,\"tid\":" +
                                 std::to_string(s.lane);
        if (s.async_id == 0) {
            out << ",\n"
                << head << ",\"ph\":\"X\",\"ts\":" << s.ts_us
                << ",\"dur\":" << s.dur_us << "}";
        } else {
            out << ",\n"
                << head << ",\"ph\":\"b\",\"id\":" << s.async_id
                << ",\"ts\":" << s.ts_us << "}";
            out << ",\n"
                << head << ",\"ph\":\"e\",\"id\":" << s.async_id
                << ",\"ts\":" << s.ts_us + s.dur_us << "}";
        }
    }
    out << "\n]}\n";
    if (!out) {
        throw std::runtime_error("short write to trace file " + path);
    }
}

} // namespace perfbench
