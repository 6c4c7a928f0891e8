/**
 * @file
 * Stream simulation: couple the functional AMC pipeline with the VPU
 * hardware cost model to produce a per-frame deployment timeline.
 *
 * The paper's evaluation reports averages (Figure 13, Table I); a
 * downstream user deploying EVA2 also wants the *trajectory* — which
 * frames paid full cost, what the instantaneous frame latency and
 * energy were, and what the stream totals come to under a given
 * policy. StreamSimulator runs the real AmcPipeline (so key/predicted
 * decisions come from actual motion estimation on actual frames) and
 * charges each frame the hardware model's cost for its type.
 */
#ifndef EVA2_HW_STREAM_SIM_H
#define EVA2_HW_STREAM_SIM_H

#include <vector>

#include "core/amc_pipeline.h"
#include "hw/vpu.h"
#include "video/frame.h"

namespace eva2 {

/** One simulated frame of a deployment timeline. */
struct FrameTrace
{
    i64 index = 0;
    bool is_key = false;
    /** RFBME feature the policy saw; 0 when RFBME did not run: the
     * first frame and schedule-forced keys. */
    double match_error = 0.0;
    HwCost cost;               ///< Modeled whole-VPU cost.
    i64 me_add_ops = 0;        ///< Measured RFBME ops (functional).
};

/**
 * A simulated stream's frame timeline and modeled totals (distinct
 * from api/run_report.h's StreamReport, a served stream's counters).
 */
struct StreamTimeline
{
    std::string network;
    std::vector<FrameTrace> frames;
    HwCost total;          ///< Sum over the timeline.
    HwCost baseline_total; ///< Same stream, every frame precise.
    i64 key_frames = 0;

    i64 frame_count() const { return static_cast<i64>(frames.size()); }

    double
    key_fraction() const
    {
        return frames.empty() ? 0.0
                              : static_cast<double>(key_frames) /
                                    static_cast<double>(frames.size());
    }

    /** Energy saved relative to precise per-frame execution. */
    double
    energy_savings() const
    {
        return baseline_total.energy_mj <= 0.0
                   ? 0.0
                   : 1.0 - total.energy_mj / baseline_total.energy_mj;
    }
};

/**
 * Runs a labelled sequence through an AmcPipeline and charges each
 * frame the hardware model's cost for its type.
 */
class StreamSimulator
{
  public:
    /**
     * @param spec    Network spec for the hardware model (full-size
     *                cost basis).
     * @param options Hardware model options (target layer, sparsity).
     */
    explicit StreamSimulator(const NetworkSpec &spec,
                             const VpuOptions &options = {});

    /**
     * Simulate a sequence: the pipeline (borrowed) processes every
     * frame; its key/predicted decisions drive the cost accounting.
     * The pipeline is reset first so each simulation starts clean.
     */
    StreamTimeline simulate(AmcPipeline &pipeline,
                          const Sequence &sequence) const;

    const VpuReport &hw() const { return hw_; }

  private:
    VpuReport hw_;
};

} // namespace eva2

#endif // EVA2_HW_STREAM_SIM_H
