#include "api/run_report.h"

#include <cstdio>

#include "util/json.h"

namespace eva2 {

std::string
digest_hex(u64 digest)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

u64
chain_digest(const std::vector<StreamReport> &rows)
{
    u64 digest = kDigestSeed;
    for (const StreamReport &row : rows) {
        digest = digest_combine(digest, row.digest);
    }
    return digest;
}

std::vector<StageReport>
stage_reports(const StageTimings &timings, double wall_ms)
{
    std::vector<StageReport> out;
    for (i64 i = 0; i < kNumAmcStages; ++i) {
        const AmcStage stage = static_cast<AmcStage>(i);
        StageReport row;
        row.stage = amc_stage_name(stage);
        row.total_ms = timings.total_ms(stage);
        row.calls = timings.calls(stage);
        row.occupancy = wall_ms > 0.0 ? row.total_ms / wall_ms : 0.0;
        out.push_back(std::move(row));
    }
    return out;
}

std::string
RunReport::to_json(int indent) const
{
    JsonWriter w(indent);
    w.begin_object();
    w.member("network", network);
    w.key("config").begin_object();
    w.member("policy", policy);
    w.member("interp", interp);
    w.member("codec", codec);
    w.member("kernel", kernel);
    w.member("target", target);
    w.member("motion", motion);
    w.member("batch", batch);
    w.member("memory", memory_spec);
    w.member("simd_isa", simd_isa);
    w.member("num_threads", num_threads);
    w.member("pipeline_depth", pipeline_depth);
    w.end_object();
    w.member("wall_ms", wall_ms);
    w.member("frames", frames);
    w.member("key_frames", key_frames);
    w.member("key_fraction", key_fraction());
    w.member("fps", frames_per_second());
    w.member("me_add_ops", me_add_ops);
    w.member("digest", digest_hex(digest));
    w.key("streams").begin_array();
    for (const StreamReport &s : streams) {
        w.begin_object();
        w.member("name", s.name);
        w.member("index", s.stream_index);
        w.member("frames", s.frames);
        w.member("key_frames", s.key_frames);
        w.member("key_fraction", s.key_fraction());
        w.member("me_add_ops", s.me_add_ops);
        w.member("digest", digest_hex(s.digest));
        w.end_object();
    }
    w.end_array();
    w.key("stages").begin_array();
    for (const StageReport &s : stages) {
        w.begin_object();
        // Stage names flow through the shared util/json escape
        // helper (JsonWriter::value), like every string here — a
        // registered kernel or stage label with quotes or
        // backslashes cannot corrupt the document.
        w.member("stage", s.stage);
        w.member("total_ms", s.total_ms);
        w.member("calls", s.calls);
        w.member("mean_ms", s.mean_ms());
        w.member("occupancy", s.occupancy);
        w.end_object();
    }
    w.end_array();
    w.key("plan").begin_array();
    for (const PlanRecord &p : plan) {
        w.begin_object();
        w.member("scope", p.scope);
        w.key("steps").begin_array();
        for (const PlanStepInfo &s : p.steps) {
            w.begin_object();
            w.member("layer", s.layer);
            w.member("kernel", s.kernel);
            w.member("variant", s.variant);
            w.member("fused_relu", s.fused_relu);
            w.member("out", s.out.str());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("suffix_batching").begin_object();
    w.member("batches", batching.batches);
    w.member("items", batching.items);
    w.member("mean_occupancy", batching.mean_occupancy());
    w.key("occupancy_histogram").begin_array();
    for (const i64 count : batching.occupancy) {
        w.value(count);
    }
    w.end_array();
    w.end_object();
    w.key("net").begin_object();
    w.member("connections_accepted", net.connections_accepted);
    w.member("connections_rejected", net.connections_rejected);
    w.member("sessions_accepted", net.sessions_accepted);
    w.member("sessions_rejected", net.sessions_rejected);
    w.member("frames_in", net.frames_in);
    w.member("outcomes_out", net.outcomes_out);
    w.member("shed_window", net.shed_window);
    w.member("shed_overload", net.shed_overload);
    w.member("shed_draining", net.shed_draining);
    w.member("shed_memory", net.shed_memory);
    w.member("shed_total", net.shed_total());
    w.member("protocol_errors", net.protocol_errors);
    w.member("bytes_in", net.bytes_in);
    w.member("bytes_out", net.bytes_out);
    w.member("window_stalls", net.window_stalls);
    w.end_object();
    w.key("memory").begin_object();
    w.member("budget_bytes", memory.budget_bytes);
    w.member("hibernate", memory.hibernate);
    w.member("resident_bytes", memory.resident_bytes);
    w.member("peak_resident_bytes", memory.peak_resident_bytes);
    w.member("sessions_tracked", memory.sessions_tracked);
    w.member("sessions_resident", memory.sessions_resident);
    w.member("sessions_hibernated", memory.sessions_hibernated);
    w.member("bytes_per_session", memory.bytes_per_session());
    w.member("hibernations", memory.hibernations);
    w.member("hydrations", memory.hydrations);
    w.member("hydrate_p50_us", memory.hydrate_p50_us);
    w.member("hydrate_p99_us", memory.hydrate_p99_us);
    w.end_object();
    w.end_object();
    return w.str();
}

} // namespace eva2
