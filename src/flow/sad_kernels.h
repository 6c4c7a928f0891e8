/**
 * @file
 * Scalar SAD (sum of absolute differences) span/tile kernels: the
 * bit-exact reference contract shared by the RFBME diff-tile producer
 * and block matching.
 *
 * Contract (the `sum_squares` fixed-stripe convention): a span of n
 * pixels is accumulated into 8 double-precision stripes — element i
 * goes to stripe i%8, widened to double *before* the subtraction —
 * and the stripes are reduced pairwise as
 *
 *   ((s0+s1) + (s2+s3)) + ((s4+s5) + (s6+s7))
 *
 * Unused stripes stay +0.0, which is an exact no-op on a non-negative
 * sum, so the convention degrades cleanly for n < 8 (n=2 is exactly
 * e0+e1, n=4 exactly (e0+e1)+(e2+e3)). The SIMD implementations in
 * src/simd/simd_kernels.h follow the same operation sequence lane for
 * lane, so every variant is bit-identical on every input — which is
 * what lets RFBME and block matching run the SIMD kernels whenever
 * simd_supported(), without perturbing end-to-end digests or the
 * per-frame `add_ops` account.
 *
 * This translation unit is compiled with baseline ISA flags: it is
 * the fallback on machines without SIMD support, so it must never be
 * built with vector extensions enabled.
 */
#ifndef EVA2_FLOW_SAD_KERNELS_H
#define EVA2_FLOW_SAD_KERNELS_H

#include "util/common.h"

namespace eva2 {

/**
 * Sum of |a[i] - b[i]| over i in [0, n) under the fixed-stripe
 * reduction contract above. Differences are taken in double
 * precision (each float is widened first).
 */
double sad_span(const float *a, const float *b, i64 n);

/**
 * One image row of `tiles` adjacent width-s tiles:
 * acc[t] += sad_span(a + t*s, b + t*s, s) for every t. Callers fold
 * tile rows in ascending y to build per-tile SADs; the per-row
 * accumulation order is part of the bit-exactness contract.
 */
void sad_tile_row(const float *a, const float *b, i64 tiles, i64 s,
                  double *acc);

} // namespace eva2

#endif // EVA2_FLOW_SAD_KERNELS_H
