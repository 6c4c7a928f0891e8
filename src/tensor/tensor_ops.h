/**
 * @file
 * Pointwise and structural operations on tensors: translation (the
 * fundamental transform of activation motion compensation), arithmetic,
 * and comparison metrics used by tests and experiments.
 */
#ifndef EVA2_TENSOR_TENSOR_OPS_H
#define EVA2_TENSOR_TENSOR_OPS_H

#include "tensor/tensor.h"

namespace eva2 {

/**
 * Translate every channel of a tensor by an integer offset, filling
 * revealed regions with zero. A positive dx moves content to the right;
 * a positive dy moves content down. This is the exact discrete
 * counterpart of the paper's vector-field transform delta(x) for a
 * uniform field.
 */
Tensor translate(const Tensor &t, i64 dy, i64 dx);

/** Elementwise sum; shapes must match. */
Tensor add(const Tensor &a, const Tensor &b);

/** Elementwise difference a - b; shapes must match. */
Tensor sub(const Tensor &a, const Tensor &b);

/** Multiply every element by s. */
Tensor scale(const Tensor &t, float s);

/** Clamp all elements below zero (ReLU as a free function). */
Tensor relu(const Tensor &t);

/** Largest absolute elementwise difference between two tensors. */
double max_abs_diff(const Tensor &a, const Tensor &b);

/** Mean absolute elementwise difference between two tensors. */
double mean_abs_diff(const Tensor &a, const Tensor &b);

/** Sum of all elements. */
double sum(const Tensor &t);

/**
 * Sum of squared elements, accumulated in eight independent stripes
 * reduced pairwise. The striping breaks the serial add dependence
 * that makes a naive left-to-right loop latency-bound (the RMS prune
 * threshold on the key-frame hot path), while staying deterministic
 * and portable: the summation order is fixed, so SIMD and non-SIMD
 * builds produce the identical double.
 */
double sum_squares(const float *x, i64 n);

/** sum_squares over a whole tensor. */
double sum_squares(const Tensor &t);

/** Fraction of elements with |v| <= threshold. */
double zero_fraction(const Tensor &t, float threshold = 0.0f);

/**
 * True when every elementwise difference is within tol. Used by
 * property tests for the convolution/translation commutativity
 * identity (Figure 3).
 */
bool all_close(const Tensor &a, const Tensor &b, double tol = 1e-5);

/**
 * Bilinear sample of a single channel at a fractional coordinate,
 * with zero padding outside the tensor bounds. (y, x) are in row,
 * column order.
 */
float bilinear_sample(const Tensor &t, i64 c, double y, double x);

/**
 * Distance between two floats in units in the last place: the number
 * of representable floats strictly between them (0 for bit-identical
 * values; +0.0 and -0.0 are 0 apart). NaN in either operand returns
 * I64_MAX, as does an infinity mismatch — divergence checks must
 * fail loudly on non-finite disagreement, not wrap around.
 */
i64 ulp_diff(float a, float b);

/** Largest elementwise ulp_diff between two tensors. */
i64 max_ulp_diff(const Tensor &a, const Tensor &b);

/** Elementwise divergence between a tensor and its reference. */
struct DivergenceReport
{
    i64 max_ulp = 0;      ///< Largest units-in-last-place distance.
    double max_abs = 0.0; ///< Largest absolute difference (L-inf).
    i64 worst_index = -1; ///< Flat index of the max-ulp element.
};

/** Per-element divergence sweep; shapes must match. */
DivergenceReport divergence(const Tensor &a, const Tensor &b);

/**
 * The bounded-divergence acceptance check gating SIMD kernels against
 * the scalar oracle (two-tier verification, docs/simd_kernels.md):
 * every element must be within `max_ulp` ulps *or* within `max_abs`
 * absolutely (the absolute escape covers near-zero elements, where
 * one rounding step is many ulps).
 */
bool within_tolerance(const Tensor &a, const Tensor &b, i64 max_ulp,
                      double max_abs);

/**
 * FNV-1a digest of a tensor's shape and raw float bit patterns
 * (util/digest.h): equal digests mean bit-identical outputs.
 */
u64 tensor_digest(const Tensor &t);

} // namespace eva2

#endif // EVA2_TENSOR_TENSOR_OPS_H
