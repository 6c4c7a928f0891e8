/**
 * @file
 * Span recorder for the traced run, written as Chrome trace-event
 * JSON (opens in Perfetto or chrome://tracing).
 *
 * Spans are recorded by the benchmark's own code around its calls
 * into the library's public functions; nothing inside the library is
 * instrumented. A disabled tracer costs one untaken branch per span.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <string>
#include <vector>

#include "bench.h"
#include "util/mutex.h"

namespace perfbench {

/** Trace lanes (Chrome "tid"s) the benchmark records on. */
enum Lane : i64
{
    kLaneGenerator = 1, ///< Load generator: encode, decode, submit.
    kLaneEngine = 2,    ///< Engine latency per frame (async spans).
    kLaneReplay = 3,    ///< Serial replay: AMC stage spans.
    kLaneLayers = 4,    ///< Single-layer plan timing.
    kLaneFrames = 5,    ///< Client-observed frame latency (async).
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** A complete span [t0, t1] on `lane`. */
    void span(const char *cat, const std::string &name, TimePoint t0,
              TimePoint t1, Lane lane);

    /**
     * An async span (overlaps freely with others on the lane), used
     * for per-frame latencies; `id` must be unique per span.
     */
    void async_span(const char *cat, const std::string &name, u64 id,
                    TimePoint t0, TimePoint t1, Lane lane);

    i64 size() const;

    /** Write every span as trace-event JSON; throws on I/O failure. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        const char *cat;
        std::string name;
        double ts_us;
        double dur_us;
        Lane lane;
        u64 async_id; ///< 0 = complete ("X") event.
    };

    double since_origin_us(TimePoint t) const;

    bool enabled_;
    TimePoint origin_ = Clock::now();
    mutable eva2::Mutex mutex_;
    std::vector<Span> spans_ GUARDED_BY(mutex_);
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
