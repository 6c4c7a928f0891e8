/**
 * @file
 * The two convolution kernels.
 *
 *  - conv_direct: the seed's nested-loop convolution, kept verbatim
 *    as the bit-exactness reference behind Network::forward.
 *  - conv_im2col_gemm: what ExecutionPlan runs for every conv. It
 *    packs input patches into a K x N column matrix (K = in_c *
 *    kernel^2 taps, N = output pixels) and multiplies by the
 *    [out_c x K] weight matrix with an N-tiled GEMM. Tiles keep a
 *    strip of the packed matrix hot in cache while every output
 *    channel consumes it, and the per-tile accumulator array
 *    vectorizes without reassociation.
 *
 * Bit-exactness: for each output element both kernels start from the
 * bias and accumulate taps in the identical (in_c, ky, kx) order into
 * a single float accumulator — the GEMM tiles only regroup *which*
 * outputs are computed together, never the per-output order — so
 * their results are bit-identical (padding taps contribute exact
 * zeros). The GEMM's optional fused ReLU writes max(acc, 0), which is
 * bit-identical to a separate ReLU pass.
 *
 * Both kernels parallelize over disjoint output regions with the
 * deterministic parallel_for, so results are independent of thread
 * count and nest safely under stream-level parallelism.
 */
#ifndef EVA2_CNN_CONV_KERNELS_H
#define EVA2_CNN_CONV_KERNELS_H

#include "simd/simd_kernels.h"
#include "tensor/tensor.h"

namespace eva2 {

/** Geometry of one dense 2D convolution. */
struct ConvGeometry
{
    i64 in_c = 0;
    i64 out_c = 0;
    i64 kernel = 1;
    i64 stride = 1;
    i64 pad = 0;
};

/** Rows of the im2col matrix: taps per output (in_c * kernel^2). */
inline i64
im2col_rows(const ConvGeometry &g)
{
    return g.in_c * g.kernel * g.kernel;
}

/**
 * The seed's direct convolution. `out` must be pre-shaped to the
 * layer's output shape; `weights` is [out_c][in_c][ky][kx] flat,
 * `biases` is [out_c].
 */
void conv_direct(const Tensor &in, const ConvGeometry &g,
                 const float *weights, const float *biases, Tensor &out);

/**
 * The scalar blocked GEMM over one column strip [j0, j0+jn): the
 * bit-exact reference micro-kernel (internally tiled at the blocked
 * kernel's native width). Exposed so the tuner and tests can race the
 * reference against the SIMD variants on identical inputs.
 */
void gemm_strip_scalar(const float *weights, const float *biases,
                       const float *col, i64 out_c, i64 taps, i64 n,
                       i64 j0, i64 jn, float *out, bool fuse_relu);

/**
 * im2col + blocked GEMM convolution of `nb` >= 1 same-shape inputs in
 * one pass; with the default kScalar variant, bit-identical to
 * conv_direct on every sample (see file comment). Every `outs[i]` is
 * pre-shaped to the layer's output shape.
 *
 * The samples' output pixels are packed side by side into one
 * K x (nb * pixels) column matrix — col[k][i*pixels + j] is tap k of
 * sample i's output pixel j, with k ordered (ic, ky, kx), j ordered
 * (oy, ox), and out-of-bounds taps packed as 0 — and multiplied by the
 * weight matrix in shared tiles. One sample's late-suffix plane is
 * often smaller than a GEMM tile; concatenating samples fills the
 * tiles and streams each weight row once per tile of the whole batch.
 * Tile grouping never changes a result bit: each output element
 * starts from its bias and accumulates taps in ascending k into one
 * accumulator.
 *
 * With one sample the GEMM's [out_c][pixels] product is the CHW
 * output itself, so it is written straight into outs[0]. With more,
 * the interleaved [out_c][nb * pixels] product goes to `gemm_out` and
 * is copied out per sample; `gemm_out` may be null when nb == 1. `col`
 * and `gemm_out` are caller-owned workspaces (arena slots), reshaped
 * here and reusable across calls and layers.
 *
 * A SIMD `variant` (tuner-selected, see kernel_tuner.h) computes the
 * same GEMM with fused multiply-adds — bounded divergence vs the
 * scalar reference, never bit-exact; it requires simd_supported().
 * Its strips never span samples, so a sample's bits do not depend on
 * `nb` either.
 */
void conv_im2col_gemm(const Tensor *const *ins, i64 nb,
                      const ConvGeometry &g, const float *weights,
                      const float *biases, Tensor *const *outs,
                      Tensor &col, Tensor *gemm_out, bool fuse_relu,
                      GemmVariant variant = GemmVariant::kScalar);

} // namespace eva2

#endif // EVA2_CNN_CONV_KERNELS_H
