/**
 * @file
 * The serial oracle and full-CNN reference every run checks against,
 * and the traced run's per-layer measurements, all taken by the
 * benchmark's own code around public library calls:
 *
 *  - a serial AmcPipeline replay with a benchmark-owned AmcObserver
 *    (stage spans for core / flow / sparse / cnn prefix+suffix);
 *  - single-layer ExecutionPlans fed real activations (cnn.layer.*);
 *  - net::encode_frame / FrameDecoder on the workload's own frames.
 */
#ifndef PERFBENCH_BREAKDOWN_H
#define PERFBENCH_BREAKDOWN_H

#include <array>
#include <string>
#include <vector>

#include "api/engine.h"
#include "bench.h"
#include "runtime/resident_set.h"
#include "trace.h"

namespace perfbench {

/** Frames each session processed, in order (pointers into inputs). */
using FrameSeqs = std::vector<std::vector<const eva2::Tensor *>>;

/** One frame as a serial (num_threads=1) engine produced it. */
struct OracleFrame
{
    bool is_key = false;
    i64 top1 = -1;
    u64 digest = 0;
};

/**
 * Serial oracle: every session replayed on its own num_threads=1
 * engine built from `config` (memory tracking off), sessions spread
 * over `threads` worker threads, each owning one engine.
 */
std::vector<std::vector<OracleFrame>>
oracle_replay(const eva2::Network &net, eva2::EngineConfig config,
              const FrameSeqs &seqs, i64 threads);

/**
 * The full-CNN reference for top-1 agreement: every processed frame
 * run through the whole network (one ExecutionPlan compiled with the
 * engine's plan options), as if every frame were a key frame.
 * Returns top-1 per [session][frame].
 */
std::vector<std::vector<i64>>
full_cnn_top1(const eva2::Network &net, const eva2::EngineConfig &config,
              const FrameSeqs &seqs, i64 threads);

/** AMC stage totals of a serial, observed AmcPipeline replay. */
struct ReplayBreakdown
{
    std::array<double, eva2::kNumAmcStages> total_ms{};
    std::array<i64, eva2::kNumAmcStages> calls{};
    double suffix_key_ms = 0.0;
    double suffix_pred_ms = 0.0;
    i64 suffix_key_calls = 0;
    i64 suffix_pred_calls = 0;
    double wall_ms = 0.0; ///< Sum of process() durations.
    i64 frames = 0;
    i64 key_frames = 0;
    i64 me_add_ops = 0;
    double key_activation_bytes = 0.0; ///< Mean after key frames.
    /** process() duration per replayed [session][frame]. */
    std::vector<std::vector<double>> service_ms;

    double mean_ms(eva2::AmcStage stage) const;
};

/**
 * Replay sessions [0, n) of `seqs` serially through AmcPipelines built
 * from `config`, at most `max_frames` frames in all, with a
 * benchmark-owned observer recording every stage span. Each replayed
 * frame's output digest must equal the oracle's; throws otherwise.
 */
ReplayBreakdown
serial_replay(const eva2::Network &net, const eva2::EngineConfig &config,
              const FrameSeqs &seqs,
              const std::vector<std::vector<OracleFrame>> &oracle,
              i64 max_frames, Tracer &tracer);

/** One compiled step of the prefix or suffix plan, run on its own. */
struct LayerRow
{
    std::string name;
    std::string scope; ///< "prefix" or "suffix".
    bool conv_or_fc = false;
    double ms = 0.0;   ///< Mean time per run.
    double macs = 0.0; ///< At the compiled (scaled) input shape.
};

/**
 * Time every step of the compiled prefix and suffix plans as a
 * single-step ExecutionPlan (a conv keeps its fused ReLU), fed the
 * real activations of `frames` chained through the steps.
 */
std::vector<LayerRow>
layer_breakdown(const eva2::Network &net, const eva2::EngineConfig &config,
                const std::vector<const eva2::Tensor *> &frames,
                Tracer &tracer);

struct CodecBreakdown
{
    double encode_us = 0.0;   ///< net::encode_frame per frame.
    double decode_us = 0.0;   ///< feed + next + parse_frame per frame.
    double bytes_per_frame = 0.0;
};

/** Time the wire codec on the workload's own frames. */
CodecBreakdown codec_breakdown(const std::vector<const eva2::Tensor *> &frames,
                               Tracer &tracer);

/** What the memory tier did in the idle-fleet phase. */
struct MemoryTierBreakdown
{
    i64 sessions = 0;
    i64 frames = 0;
    i64 budget_mb = 0;
    eva2::MemoryStats stats; ///< RunReport memory section at the end.
};

/**
 * The idle-fleet phase: in-process sessions of a small AlexNet
 * (64 px, Q8.8 frames) on an engine whose `budget_mb:N,hibernate=on`
 * budget is about 60% of the fleet's unconstrained footprint. Every
 * session sends a 2-frame burst, idles while the rest of the fleet
 * runs, then returns for a second burst, so the LRU tier hibernates
 * (writes) and hydrates (reads) sessions. The same for every workload,
 * since no served workload puts the tier under pressure. Each
 * session's chained digest must equal a budget-less control's; throws
 * otherwise.
 */
MemoryTierBreakdown memory_tier_breakdown(u64 seed, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_BREAKDOWN_H
