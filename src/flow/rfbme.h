/**
 * @file
 * Receptive field block motion estimation (RFBME), the paper's new
 * motion estimation algorithm (Sections II-C1 and III-A).
 *
 * RFBME estimates one motion vector per *receptive field* of the AMC
 * target layer, exactly the granularity activation warping can use.
 * It exploits two properties of receptive fields: (1) nearby fields
 * overlap heavily, so their absolute-difference sums share tile-level
 * partial sums (tiles are s x s squares where s is the receptive-field
 * stride), and (2) padding places part of border fields outside the
 * image, where comparisons are unnecessary.
 *
 * `rfbme()` is the optimized functional algorithm (tile reuse via
 * summed-area tables, the software analogue of the hardware's rolling
 * adds/subtracts); `rfbme_naive()` recomputes every receptive field
 * from scratch and exists to validate the optimized path and to
 * measure the op-count gap the paper quantifies in Section IV-A.
 */
#ifndef EVA2_FLOW_RFBME_H
#define EVA2_FLOW_RFBME_H

#include <vector>

#include "flow/motion_field.h"
#include "tensor/tensor.h"

namespace eva2 {

/**
 * Diff-tile producer implementation. Both variants follow the
 * fixed-stripe SAD contract of flow/sad_kernels.h for interior tiles
 * and share the guarded per-pixel loop for border tiles, so they are
 * bit-identical on every input: the choice moves neither digests nor
 * the `add_ops` account. kSimd (the default) falls back to the scalar
 * kernels when simd_supported() is false; kScalar exists so the
 * parity tests and the scalar bench rows can force the oracle.
 */
enum class RfbmeVariant : i64
{
    kScalar = 0, ///< Fixed-stripe scalar SAD (the oracle tier).
    kSimd = 1,   ///< Runtime-dispatched SIMD SAD tile kernels.
};

/** Printable variant name ("scalar" or "simd"). */
const char *rfbme_variant_name(RfbmeVariant v);

/** Parameters of an RFBME run. */
struct RfbmeConfig
{
    i64 rf_size = 6;   ///< Receptive-field extent in pixels.
    i64 rf_stride = 2; ///< Receptive-field stride in pixels.
    i64 rf_pad = 2;    ///< Receptive-field padding in pixels.
    i64 search_radius = 12; ///< Max offset searched, in pixels.
    i64 search_stride = 2;  ///< Offset grid step, in pixels.

    /** Diff-tile producer; variants are bit-identical (see above). */
    RfbmeVariant variant = RfbmeVariant::kSimd;
};

/** Output of an RFBME run. */
struct RfbmeResult
{
    /**
     * Backward source offsets (pixel units) on the activation grid:
     * activation(u) should be read from key activation at
     * u + field(u)/rf_stride.
     */
    MotionField field;

    /**
     * Per-receptive-field minimum mean absolute pixel difference, the
     * block "match error" reused by the adaptive key-frame policy.
     * Row-major, aligned with `field`.
     */
    std::vector<double> rf_errors;

    /** Sum of rf_errors: the aggregate match-quality feature. */
    double total_error = 0.0;

    /** Mean of rf_errors. */
    double mean_error = 0.0;

    /** Arithmetic (add/subtract) operations actually performed. */
    i64 add_ops = 0;
};

/**
 * Reusable buffers for rfbme_into. A workspace amortizes every
 * heap allocation RFBME needs — the candidate-offset grid, the
 * per-chunk minimum/winner planes, and the tile/prefix-sum planes —
 * so a per-stream workspace makes steady-state motion estimation
 * allocation-free (the compiled frame path keeps one per stream).
 * A workspace is not thread-safe; it belongs to one estimator call
 * at a time. The offset grid is cached against the config that built
 * it and rebuilt only when the search geometry changes.
 */
struct RfbmeWorkspace
{
    /**
     * Per-chunk buffers of the parallel candidate-offset search.
     * Only `best` and `winner` are cleared per frame; the tile and
     * prefix planes are fully rewritten per offset, so a same-shape
     * frame reuses their contents-stale allocations untouched.
     */
    struct Chunk
    {
        std::vector<double> best;
        std::vector<i32> winner;
        std::vector<double> prefix_diff;
        std::vector<double> prefix_count;
        std::vector<double> tile_diff;
        std::vector<double> tile_count;
        i64 add_ops = 0;
    };

    std::vector<Vec2> offsets;
    std::vector<Chunk> chunks;
    std::vector<double> merge_best;

    bool offsets_valid = false;
    i64 offsets_radius = -1;
    i64 offsets_stride = -1;
};

/**
 * Run optimized RFBME between a stored key frame and the current
 * frame. Both frames must be single-channel and the same size.
 */
RfbmeResult rfbme(const Tensor &key, const Tensor &current,
                  const RfbmeConfig &config);

/**
 * rfbme into a caller-owned result and workspace, both resized in
 * place: the allocation-free form the compiled frame path runs every
 * candidate frame. Bit-identical to rfbme() — same chunking, same
 * ascending-offset merge.
 */
void rfbme_into(const Tensor &key, const Tensor &current,
                const RfbmeConfig &config, RfbmeResult &result,
                RfbmeWorkspace &ws);

/**
 * Reference implementation without tile reuse: every receptive field
 * difference is recomputed pixel by pixel. Must produce identical
 * vectors and errors to rfbme().
 */
RfbmeResult rfbme_naive(const Tensor &key, const Tensor &current,
                        const RfbmeConfig &config);

/** Activation-grid height RFBME produces for an image height. */
i64 rfbme_out_size(i64 image_extent, const RfbmeConfig &config);

} // namespace eva2

#endif // EVA2_FLOW_RFBME_H
