/**
 * @file
 * Planned, allocation-free execution of a layer range.
 *
 * Network::forward heap-allocates one tensor per layer per call; at
 * serving rates, with the suffix running on *every* frame (key or
 * predicted — Section II of the paper), that allocation traffic and
 * the naive direct convolution dominate per-frame cost. Compiling a
 * network for a fixed input shape removes both:
 *
 *  - every layer's output shape is resolved once, at compile time;
 *  - each activation is assigned a slot in a caller-supplied
 *    ScratchArena (ping-pong between two slots, since each layer
 *    only reads its immediate predecessor), so steady-state frames
 *    allocate nothing;
 *  - convolutions run the im2col + blocked-GEMM kernel
 *    (bit-identical to the seed's direct loop, see conv_kernels.h),
 *    and a ReLU that directly follows a conv is fused into the
 *    conv's output write.
 *
 * A plan may also be compiled for up to `max_batch` same-shape
 * inputs per run: the cross-stream suffix batcher executes many
 * streams' suffixes as one pass. Batching buys what batch-of-1
 * execution cannot:
 *
 *  - FC layers become matrix-matrix products: each weight row is
 *    streamed from memory once per *batch* instead of once per
 *    sample (every FC step runs FcLayer::forward_batched over the
 *    run's samples);
 *  - GEMM convs pack all samples' output pixels into one im2col
 *    matrix, so tiles that one small late-suffix plane would leave
 *    mostly empty are filled (conv_im2col_gemm over nb inputs);
 *  - other layers run per sample through their forward_into bodies.
 *
 * Bit-exactness: every output element of every sample is computed
 * with the accumulation order of the seed layer, so a sample's result
 * — and each stream's digest chain — does not depend on which other
 * samples shared its run. Under `tune` the GEMM register tiles trade
 * that seed identity for bounded divergence, but neither max_batch
 * nor a run's n moves a sample's bits under any kernel spec: the
 * tiles are picked per layer shape, and their strips never span two
 * samples.
 *
 * Memory: lane i's activations ping-pong through arena slots 2i and
 * 2i+1; slot 2*max_batch is the im2col buffer shared by every GEMM
 * conv, and slot 2*max_batch+1 holds a GEMM conv's interleaved output
 * for runs of more than one sample. A one-sample plan thus uses slots
 * 0 and 1 plus slot 2.
 *
 * A plan borrows its Network and is immutable after compilation, so
 * one plan may be shared by any number of threads, each running it
 * against its own arena.
 */
#ifndef EVA2_CNN_EXECUTION_PLAN_H
#define EVA2_CNN_EXECUTION_PLAN_H

#include <string>
#include <vector>

#include "cnn/conv_kernels.h"
#include "cnn/network.h"
#include "tensor/scratch_arena.h"

namespace eva2 {

/** Compilation knobs for ExecutionPlan. */
struct PlanOptions
{
    /**
     * Autotune kernels per layer shape (the `kernel=tuned` registry
     * spec): at compile time every conv layer's GEMM micro-kernel
     * variant is picked by a KernelTuner contest on synthetic data of
     * the real shape, cached process-wide so each shape tunes once.
     * The SIMD winners are bounded-divergence vs the scalar reference
     * (fma) — see docs/simd_kernels.md for the verification contract.
     * No-op when SIMD is unsupported on this machine.
     */
    bool tune = false;
    /** Per-contest tuning budget in microseconds (tune only). */
    i64 tune_budget_us = 20000;
};

/** One compiled step, as exposed for reports and tests. */
struct PlanStepInfo
{
    i64 layer_index = 0;  ///< Index in the source network.
    std::string layer;    ///< Layer report name.
    /** Kernel name: "im2col_gemm" for convs, else the layer kind. */
    std::string kernel;
    /**
     * Chosen micro-kernel variant: the GEMM register tile for gemm
     * convs ("scalar", "mr2xnv4", ...), for FC layers "simd" exactly
     * when simd_supported() (else "scalar"), empty for steps with no
     * variant dimension.
     */
    std::string variant;
    bool fused_relu = false; ///< A conv with its next-layer ReLU.
    Shape out;            ///< Pre-resolved output shape.
};

/**
 * The kernel selection of one compiled plan, as reported through the
 * instrumentation hooks (AmcObserver::on_plan) and echoed in the
 * serving API's RunReport.
 */
struct PlanRecord
{
    std::string scope; ///< "prefix", "suffix", or "motion".
    std::vector<PlanStepInfo> steps;
};

/**
 * A layer range of a Network, compiled for one input shape and for up
 * to `max_batch` inputs of that shape per run. See the file comment
 * for what compilation and batching buy.
 */
class ExecutionPlan
{
  public:
    /**
     * Compile layers [begin, end) of `net` for up to `max_batch`
     * inputs of shape `in_shape` (1 <= max_batch <= kMaxSuffixBatch).
     * Shape propagation runs here, so an incompatible input shape
     * fails at compile time, not on the first frame. The network is
     * borrowed and must outlive the plan.
     */
    ExecutionPlan(const Network &net, i64 begin, i64 end, Shape in_shape,
                  PlanOptions opts = {}, i64 max_batch = 1);

    /** Compile the whole network at its declared input shape. */
    explicit ExecutionPlan(const Network &net, PlanOptions opts = {})
        : ExecutionPlan(net, 0, net.num_layers(), net.input_shape(),
                        opts)
    {
    }

    /** Compile `plan`'s layer range and options for `max_batch`. */
    ExecutionPlan(const ExecutionPlan &plan, i64 max_batch)
        : ExecutionPlan(plan.network(), plan.begin(), plan.end(),
                        plan.in_shape(), plan.options(), max_batch)
    {
    }

    /**
     * Execute samples inputs[0..n) (1 <= n <= max_batch(), all of
     * shape in_shape()) in one pass, cycling activations through
     * `arena`. On return outs[i] points at the arena slot holding
     * sample i's final activation (or at inputs[i] for an empty
     * range) — valid until the arena is next written. Callers that
     * need a result to outlive the arena copy it.
     *
     * Aliasing: inputs[i] may be lane i's *own* arena slot, e.g. the
     * previous plan's output when two plans are chained through one
     * arena; the lane then shifts its ping-pong parity so no step
     * reads the tensor it is writing. Inputs must not alias a
     * *different* lane's slots or the shared im2col/GEMM slots.
     *
     * Zero steady-state allocations: once the arena slots have grown
     * to this plan's largest shapes at each batch size used, run()
     * performs no heap allocation.
     */
    void run(const Tensor *const *inputs, i64 n, const Tensor **outs,
             ScratchArena &arena) const;

    /** The n = 1 case of run(): returns the final activation. */
    const Tensor &run(const Tensor &in, ScratchArena &arena) const;

    /**
     * Convenience wrapper over run(): executes against the calling
     * thread's arena and copies the result out.
     */
    Tensor forward(const Tensor &in) const;

    Shape in_shape() const { return in_shape_; }
    Shape out_shape() const { return out_shape_; }
    i64 begin() const { return begin_; }
    i64 end() const { return end_; }
    i64 max_batch() const { return max_batch_; }
    i64 num_steps() const { return static_cast<i64>(steps_.size()); }
    const PlanOptions &options() const { return opts_; }
    const Network &network() const { return *net_; }

    /** Per-step kernel selection, for reports and tests. */
    std::vector<PlanStepInfo> describe() const;

  private:
    struct Step
    {
        const Layer *layer = nullptr;
        i64 layer_index = 0;
        Shape out_shape;
        /** The conv's geometry (conv steps only: the plan runs each
         * conv as one GEMM over every sample of a run). */
        ConvGeometry conv;
        /** Tuner-picked GEMM variant (kScalar unless opts.tune). */
        GemmVariant conv_variant = GemmVariant::kScalar;
        /** Conv step whose next-layer ReLU it absorbed. */
        bool fuse_relu = false;
        i64 parity = 0; ///< Lane ping-pong side this step writes.
    };

    /** Arena slot of lane `lane`'s ping-pong side `parity`. */
    i64
    lane_slot(i64 lane, i64 parity) const
    {
        return lane * 2 + parity;
    }

    i64 col_slot() const { return max_batch_ * 2; }
    i64 gemm_slot() const { return max_batch_ * 2 + 1; }

    const Network *net_;
    i64 begin_;
    i64 end_;
    Shape in_shape_;
    Shape out_shape_;
    i64 max_batch_;
    PlanOptions opts_;
    std::vector<Step> steps_;
};

} // namespace eva2

#endif // EVA2_CNN_EXECUTION_PLAN_H
