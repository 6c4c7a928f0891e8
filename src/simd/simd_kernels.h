/**
 * @file
 * Plain-function interface to the explicit-SIMD kernel variants.
 *
 * This header is safe to include from any translation unit: it
 * contains no intrinsics and no Vec types. The implementations live
 * in simd_kernels.cc, the one TU the build compiles with elevated ISA
 * flags (see src/simd/vec.h and the EVA2_SIMD CMake option), and they
 * must only be *called* after a positive simd_supported() check —
 * callers fall back to the scalar reference kernels otherwise.
 *
 * Two numeric classes of kernel live here:
 *
 *  - Bit-exact: fc_rows_simd, relu_simd, the warp_apply_* kernels,
 *    and the SAD kernels (sad_span_simd / sad_tile_row_simd) perform,
 *    per element, exactly the operation sequence of the scalar
 *    reference (lane-parallel max / mul / add, no fma, no reordering;
 *    the SAD kernels reproduce the fixed-stripe reduction contract of
 *    flow/sad_kernels.h). They are drop-in replacements and need no
 *    divergence gating.
 *  - Bounded-divergence: the GEMM micro-kernels (fma: one rounding
 *    where the scalar reference has two). These are only selected
 *    through the `kernel=tuned` path, which the two-tier verification
 *    story gates on the tensor_ops ulp/L-inf digest check and
 *    end-task accuracy parity (docs/simd_kernels.md).
 */
#ifndef EVA2_SIMD_SIMD_KERNELS_H
#define EVA2_SIMD_SIMD_KERNELS_H

#include <vector>

#include "util/common.h"

namespace eva2 {

/**
 * A GEMM micro-kernel variant: the register-tile geometry the tuner
 * searches over. kScalar is the reference blocked kernel in
 * conv_kernels.cc; the kMrXxNvY variants are SIMD register tiles of
 * X weight rows by Y vectors of output pixels (X*Y accumulator
 * vectors held live; larger X amortizes the packed-column loads
 * across weight rows, larger Y hides fma latency).
 */
enum class GemmVariant : i64
{
    kScalar = 0,
    kMr1xNv4,
    kMr2xNv2,
    kMr2xNv4,
    kMr4xNv2,
    kMr4xNv3,
};

/** Printable variant name ("scalar", "mr2xnv4", ...). */
const char *gemm_variant_name(GemmVariant v);

/** The SIMD variants the tuner considers (excludes kScalar). */
const std::vector<GemmVariant> &simd_gemm_variants();

/** True when the SIMD TU was compiled for a real vector ISA. */
bool simd_compiled();

/**
 * True when the SIMD kernels may be called on this machine: compiled
 * for a real ISA *and* the running CPU supports it (x86 builds check
 * cpuid for AVX2+FMA; NEON is baseline on AArch64). Cheap; cached.
 */
bool simd_supported();

/** ISA the SIMD kernels run ("avx2", "sse2", "neon", "scalar"). */
const char *simd_isa_name();

/** Vector lanes of one Vec<float> ("8" for AVX2; 1 when scalar). */
i64 simd_lanes();

/**
 * SIMD blocked GEMM over a packed im2col matrix: out[m][j] =
 * bias[m] + sum_k w[m][k] * col[k][j] for j in [j0, j0+jn), all m in
 * [0, out_c). Accumulation per output element is ascending-k with
 * fused multiply-adds; columns beyond the last full vector run
 * through a value-safe lane-parallel tail. Requires simd_supported().
 */
void gemm_strip_simd(GemmVariant variant, const float *weights,
                     const float *biases, const float *col, i64 out_c,
                     i64 taps, i64 n, i64 j0, i64 jn, float *out,
                     bool fuse_relu);

/** Column-strip width gemm_strip_simd wants for a variant, in
 * pixels; parallel_for splits the GEMM over strips of this width. */
i64 gemm_strip_width(GemmVariant variant);

/**
 * SIMD fully connected rows [o0, o1) for nb >= 1 samples:
 * ys[s][o] = biases[o] + sum_i weights[o * in_dim + i] * xs[s][i],
 * with `weights` row-major [out][in]. Bit-exact vs fc_rows_scalar
 * (cnn/fc_layer.h) on every input: each vector lane holds one output
 * neuron, starts from its bias and adds one explicit product per
 * input, in ascending input order — the scalar chain, lane by lane.
 * The lanes' weights come from the row-major rows through an
 * in-register transpose, so no packed copy of the matrix exists; up
 * to 8 samples share each transposed block.
 */
void fc_rows_simd(const float *weights, const float *biases, i64 in_dim,
                  i64 o0, i64 o1, const float *const *xs, i64 nb,
                  float *const *ys);

/** Lane-parallel max(x, 0): bit-exact vs the scalar loop. */
void relu_simd(const float *in, float *out, i64 n);

/**
 * Apply precomputed bilinear-warp coefficients to one channel plane:
 * for each output pixel p,
 *
 *   top = v00*wx0 + v01*wx1;  bot = v10*wx0 + v11*wx1;
 *   out[p] = (float)(top*wy0 + bot*wy1)
 *
 * in double precision, where vXY = kXY[p] ? (double)plane[oXY[p]]
 * : 0.0 — the kXY masks (0 or -1) *select* the zero-padding of
 * out-of-bounds corners rather than multiplying by 0.0, which would
 * turn -x into -0.0 and infinities into NaN where the scalar
 * reference's padding is an exact +0.0. Bit-exact vs the reference in
 * core/warp.cc, which uses the identical expression tree. Offsets of
 * masked-out corners must still be valid indices (callers clamp to 0).
 */
void warp_apply_bilinear_simd(const float *plane, const i32 *o00,
                              const i32 *o01, const i32 *o10,
                              const i32 *o11, const i32 *k00,
                              const i32 *k01, const i32 *k10,
                              const i32 *k11, const double *wx0,
                              const double *wx1, const double *wy0,
                              const double *wy1, i64 n, float *out);

/**
 * Apply precomputed nearest-warp offsets to one channel plane:
 * out[p] = off[p] >= 0 ? plane[off[p]] : 0. Bit-exact (pure moves).
 */
void warp_apply_nearest_simd(const float *plane, const i32 *off, i64 n,
                             float *out);

/**
 * SIMD sum of |a[i] - b[i]| over i in [0, n): bit-exact vs the
 * scalar sad_span in flow/sad_kernels.h. Each float is widened to
 * double *before* the subtraction (float subtract-then-widen rounds
 * differently), elements accumulate into the same 8 stripes
 * (element i -> stripe i%8), and the stripes reduce through the same
 * pairwise tree, so the result is identical on every input.
 */
double sad_span_simd(const float *a, const float *b, i64 n);

/**
 * SIMD diff-tile row kernel: acc[t] += sad_span(a + t*s, b + t*s, s)
 * for t in [0, tiles). Bit-exact vs flow/sad_kernels.h
 * sad_tile_row. Narrow tiles (s = 2 and s = 4) vectorize *across*
 * adjacent tiles — one 8-float load covers 4 (resp. 2) tiles and a
 * horizontal pairwise add produces each tile's stripe reduction
 * exactly (for n < 8 the unused stripes of the scalar contract are
 * +0.0, an exact no-op) — wider tiles vectorize within the tile like
 * sad_span_simd.
 */
void sad_tile_row_simd(const float *a, const float *b, i64 tiles,
                       i64 s, double *acc);

} // namespace eva2

#endif // EVA2_SIMD_SIMD_KERNELS_H
