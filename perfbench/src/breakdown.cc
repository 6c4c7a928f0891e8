#include "breakdown.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cnn/model_zoo.h"
#include "core/amc_pipeline.h"
#include "eval/metrics.h"
#include "net/wire.h"
#include "sparse/rle.h"
#include "video/scenarios.h"

namespace perfbench {

using eva2::AmcStage;

namespace {

/** Run fn(s) for every session index, sessions dealt over threads. */
template <typename Fn>
void
for_sessions(size_t sessions, i64 threads, Fn fn)
{
    const size_t workers = static_cast<size_t>(std::max<i64>(
        1, std::min<i64>(threads, static_cast<i64>(sessions))));
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < workers; ++t) {
        pool.emplace_back([&, t]() {
            try {
                fn(t, workers);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    }
    for (std::thread &t : pool) {
        t.join();
    }
    for (const std::exception_ptr &e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
}

} // namespace

std::vector<std::vector<OracleFrame>>
oracle_replay(const eva2::Network &net, eva2::EngineConfig config,
              const FrameSeqs &seqs, i64 threads)
{
    config.num_threads = 1;
    config.memory = "off";
    std::vector<std::vector<OracleFrame>> out(seqs.size());
    for_sessions(seqs.size(), threads, [&](size_t t, size_t workers) {
        eva2::Engine engine(net, config);
        for (size_t s = t; s < seqs.size(); s += workers) {
            eva2::Session &session =
                engine.session("oracle" + std::to_string(s));
            out[s].reserve(seqs[s].size());
            for (const eva2::Tensor *frame : seqs[s]) {
                const eva2::FrameOutcome o =
                    session.wait(session.submit(*frame));
                out[s].push_back({o.is_key, o.top1, o.output_digest});
            }
            session.forget_outcomes();
        }
    });
    return out;
}

std::vector<std::vector<i64>>
full_cnn_top1(const eva2::Network &net, const eva2::EngineConfig &config,
              const FrameSeqs &seqs, i64 threads)
{
    const eva2::ExecutionPlan plan(net, config.resolve(net).amc.plan);
    std::vector<std::vector<i64>> out(seqs.size());
    for_sessions(seqs.size(), threads, [&](size_t t, size_t workers) {
        eva2::ScratchArena arena;
        for (size_t s = t; s < seqs.size(); s += workers) {
            for (const eva2::Tensor *frame : seqs[s]) {
                out[s].push_back(eva2::top1(plan.run(*frame, arena)));
            }
        }
    });
    return out;
}

double
ReplayBreakdown::mean_ms(AmcStage stage) const
{
    const size_t i = static_cast<size_t>(stage);
    return calls[i] == 0 ? 0.0
                         : total_ms[i] / static_cast<double>(calls[i]);
}

namespace {

/** The module each AMC stage's work lives in (the trace category). */
const char *
stage_module(AmcStage stage)
{
    switch (stage) {
    case AmcStage::kMotionEstimation:
        return "flow";
    case AmcStage::kPrefix:
    case AmcStage::kSuffix:
        return "cnn";
    case AmcStage::kEncode:
        return "sparse";
    case AmcStage::kIngest:
    case AmcStage::kMotionField:
    case AmcStage::kPolicy:
    case AmcStage::kWarp:
    case AmcStage::kCommit:
        break;
    }
    return "core";
}

/**
 * Records every stage span of a serial replay. The stage durations
 * come from the pipeline's own StageScope timers; the span ends when
 * on_stage is called, so it starts `ms` earlier.
 */
class SpanObserver final : public eva2::AmcObserver
{
  public:
    SpanObserver(ReplayBreakdown &out, Tracer &tracer)
        : out_(out), tracer_(tracer)
    {
    }

    void
    on_stage(AmcStage stage, double ms) override
    {
        const TimePoint end = Clock::now();
        const size_t i = static_cast<size_t>(stage);
        out_.total_ms[i] += ms;
        ++out_.calls[i];
        if (stage == AmcStage::kSuffix) {
            last_suffix_ms_ = ms;
        }
        tracer_.span(stage_module(stage), eva2::amc_stage_name(stage),
                     end - std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   ms)),
                     end, kLaneReplay);
    }

    /** Book the frame's suffix span under its frame kind. */
    void
    end_frame(bool is_key)
    {
        if (is_key) {
            out_.suffix_key_ms += last_suffix_ms_;
            ++out_.suffix_key_calls;
        } else {
            out_.suffix_pred_ms += last_suffix_ms_;
            ++out_.suffix_pred_calls;
        }
        last_suffix_ms_ = 0.0;
    }

  private:
    ReplayBreakdown &out_;
    Tracer &tracer_;
    double last_suffix_ms_ = 0.0;
};

} // namespace

ReplayBreakdown
serial_replay(const eva2::Network &net, const eva2::EngineConfig &config,
              const FrameSeqs &seqs,
              const std::vector<std::vector<OracleFrame>> &oracle,
              i64 max_frames, Tracer &tracer)
{
    ReplayBreakdown out;
    const eva2::StreamExecutorOptions opts = config.resolve(net);
    SpanObserver observer(out, tracer);
    double key_bytes = 0.0;
    for (size_t s = 0; s < seqs.size() && out.frames < max_frames; ++s) {
        eva2::AmcPipeline pipeline(
            net,
            opts.make_policy ? opts.make_policy(static_cast<i64>(s))
                             : nullptr,
            opts.amc);
        pipeline.set_observer(&observer);
        out.service_ms.emplace_back();
        for (size_t k = 0; k < seqs[s].size() && out.frames < max_frames;
             ++k) {
            const TimePoint t0 = Clock::now();
            const eva2::AmcFrameResult r = pipeline.process(*seqs[s][k]);
            const double ms = ms_between(t0, Clock::now());
            out.wall_ms += ms;
            out.service_ms.back().push_back(ms);
            observer.end_frame(r.is_key);
            ++out.frames;
            out.me_add_ops += r.me_add_ops;
            if (r.is_key) {
                ++out.key_frames;
                key_bytes += static_cast<double>(
                    pipeline.stored_activation_bytes());
            }
            const OracleFrame &o = oracle[s][k];
            if (eva2::tensor_digest(r.output) != o.digest ||
                r.is_key != o.is_key) {
                throw std::runtime_error(
                    "serial AmcPipeline replay diverged from the engine "
                    "oracle at session " +
                    std::to_string(s) + " frame " + std::to_string(k));
            }
        }
    }
    out.key_activation_bytes =
        out.key_frames == 0
            ? 0.0
            : key_bytes / static_cast<double>(out.key_frames);
    return out;
}

std::vector<LayerRow>
layer_breakdown(const eva2::Network &net, const eva2::EngineConfig &config,
                const std::vector<const eva2::Tensor *> &frames,
                Tracer &tracer)
{
    const eva2::StreamExecutorOptions opts = config.resolve(net);
    const eva2::AmcPipeline pipeline(net, nullptr, opts.amc);
    std::vector<std::unique_ptr<eva2::ExecutionPlan>> plans;
    std::vector<LayerRow> rows;
    auto add_steps = [&](const eva2::ExecutionPlan &whole,
                         const char *scope) {
        eva2::Shape in = whole.in_shape();
        for (const eva2::PlanStepInfo &step : whole.describe()) {
            // A conv keeps the ReLU the compiled plan fused into it, so
            // the steps sum to the plan.
            const i64 end = step.layer_index + (step.fused_relu ? 2 : 1);
            plans.push_back(std::make_unique<eva2::ExecutionPlan>(
                net, step.layer_index, end, in, whole.options()));
            const eva2::Layer &layer = net.layer(step.layer_index);
            LayerRow row;
            row.name = step.layer;
            row.scope = scope;
            row.conv_or_fc = layer.kind() == eva2::LayerKind::kConv ||
                             layer.kind() == eva2::LayerKind::kFc;
            row.macs = static_cast<double>(layer.macs(in));
            rows.push_back(row);
            in = step.out;
        }
    };
    add_steps(pipeline.prefix_plan(), "prefix");
    add_steps(pipeline.suffix_plan(), "suffix");

    eva2::ScratchArena arena;
    std::vector<double> total(rows.size(), 0.0);
    auto chain = [&](const eva2::Tensor &frame, bool record) {
        eva2::Tensor x = frame;
        for (size_t i = 0; i < plans.size(); ++i) {
            const TimePoint t0 = Clock::now();
            const eva2::Tensor &y = plans[i]->run(x, arena);
            const TimePoint t1 = Clock::now();
            if (record) {
                total[i] += ms_between(t0, t1);
                tracer.span("cnn", rows[i].name, t0, t1, kLaneLayers);
            }
            x = y;
        }
    };
    chain(*frames.at(0), false); // Warm the arena and caches.
    for (const eva2::Tensor *frame : frames) {
        chain(*frame, true);
    }
    for (size_t i = 0; i < rows.size(); ++i) {
        rows[i].ms = total[i] / static_cast<double>(frames.size());
    }
    return rows;
}

CodecBreakdown
codec_breakdown(const std::vector<const eva2::Tensor *> &frames,
                Tracer &tracer)
{
    namespace net = eva2::net;
    CodecBreakdown out;
    double encode_ms = 0.0;
    double decode_ms = 0.0;
    double bytes = 0.0;
    net::FrameDecoder decoder;
    net::Message msg;
    for (size_t i = 0; i < frames.size(); ++i) {
        const TimePoint t0 = Clock::now();
        const std::vector<eva2::u8> wire =
            net::encode_frame(1, static_cast<u64>(i), *frames[i]);
        const TimePoint t1 = Clock::now();
        decoder.feed(wire.data(), wire.size());
        if (!decoder.next(&msg)) {
            throw std::runtime_error("codec: frame did not decode");
        }
        const eva2::Tensor back = net::parse_frame(msg.payload);
        const TimePoint t2 = Clock::now();
        if (back.shape() != frames[i]->shape()) {
            throw std::runtime_error("codec: frame shape changed");
        }
        encode_ms += ms_between(t0, t1);
        decode_ms += ms_between(t1, t2);
        bytes += static_cast<double>(wire.size());
        tracer.span("net", "encode_frame", t0, t1, kLaneGenerator);
        tracer.span("net", "decode_frame", t1, t2, kLaneGenerator);
    }
    const double n = static_cast<double>(frames.size());
    out.encode_us = 1e3 * encode_ms / n;
    out.decode_us = 1e3 * decode_ms / n;
    out.bytes_per_frame = bytes / n;
    return out;
}

namespace {

/** Sessions of the idle-fleet phase. */
constexpr i64 kFleetSessions = 512;
/** Distinct frame streams the fleet's sessions cycle through. */
constexpr i64 kFleetStreams = 8;
/** Frames per burst; every session sends two bursts. */
constexpr i64 kFleetBurst = 2;

eva2::EngineConfig
fleet_config(const std::string &memory)
{
    eva2::EngineConfig ec;
    ec.policy = "adaptive_error:th=0.05,max_gap=10";
    ec.search_radius = 4;
    ec.num_threads = 1;    // Inline commits, so eviction is deterministic.
    ec.pipeline_depth = 1; // One frame in flight per session.
    ec.memory = memory;
    return ec;
}

} // namespace

MemoryTierBreakdown
memory_tier_breakdown(u64 seed, Tracer &tracer)
{
    eva2::ScaledBuildOptions build;
    build.input = eva2::Shape{1, 64, 64};
    const eva2::Network net = eva2::build_scaled(eva2::alexnet_spec(), build);
    const std::vector<eva2::Sequence> raw = eva2::multi_stream_set(
        seed, kFleetStreams, 2 * kFleetBurst, build.input.h);
    // Frames on the Q8.8 grid the hibernated key state is stored on,
    // so hibernation is lossless and digests stay exact.
    std::vector<std::vector<eva2::Tensor>> streams(kFleetStreams);
    for (size_t p = 0; p < streams.size(); ++p) {
        for (const eva2::LabeledFrame &f : raw[p].frames) {
            streams[p].push_back(eva2::quantize_q88(f.image));
        }
    }
    auto stream_of = [&](i64 session) -> const std::vector<eva2::Tensor> & {
        return streams[static_cast<size_t>(session % kFleetStreams)];
    };

    // Budget-less control: the digest every session fed the same
    // frames must reproduce, and one session's unconstrained bytes.
    std::vector<u64> control(streams.size());
    i64 session_bytes = 0;
    {
        eva2::Engine engine(net, fleet_config("budget_mb:1048576"));
        for (size_t p = 0; p < streams.size(); ++p) {
            eva2::Session &s = engine.session("control" + std::to_string(p));
            for (const eva2::Tensor &f : streams[p]) {
                (void)s.submit(f);
            }
            control[p] = s.report().digest;
        }
        session_bytes = engine.resident_manager()->stats().resident_bytes /
                        static_cast<i64>(streams.size());
    }

    MemoryTierBreakdown out;
    out.sessions = kFleetSessions;
    out.frames = kFleetSessions * 2 * kFleetBurst;
    out.budget_mb = std::max<i64>(
        1, session_bytes * kFleetSessions * 3 / 5 / (1024 * 1024));
    eva2::Engine engine(net,
                        fleet_config("budget_mb:" +
                                     std::to_string(out.budget_mb) +
                                     ",hibernate=on"));
    std::vector<eva2::Session *> sessions;
    for (i64 i = 0; i < kFleetSessions; ++i) {
        sessions.push_back(&engine.session("fleet" + std::to_string(i)));
    }
    for (i64 burst = 0; burst < 2; ++burst) {
        const TimePoint t0 = Clock::now();
        for (i64 i = 0; i < kFleetSessions; ++i) {
            for (i64 k = burst * kFleetBurst; k < (burst + 1) * kFleetBurst;
                 ++k) {
                (void)sessions[static_cast<size_t>(i)]->submit(
                    stream_of(i)[static_cast<size_t>(k)]);
            }
        }
        tracer.span("runtime", "idle fleet burst " + std::to_string(burst),
                    t0, Clock::now(), kLaneGenerator);
    }
    engine.flush();
    out.stats = engine.resident_manager()->stats();
    for (i64 i = 0; i < kFleetSessions; ++i) {
        const u64 digest = sessions[static_cast<size_t>(i)]->report().digest;
        if (digest != control[static_cast<size_t>(i % kFleetStreams)]) {
            throw std::runtime_error(
                "idle fleet: session " + std::to_string(i) +
                " digest differs from the budget-less control");
        }
    }
    return out;
}

} // namespace perfbench
