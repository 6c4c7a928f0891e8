/**
 * @file
 * Fully-connected and softmax layers. These are the non-spatial layers
 * that must remain in the CNN suffix: they have "no 2D spatial
 * structure and no meaningful relationship with motion in the input"
 * (Section II-C5).
 */
#ifndef EVA2_CNN_FC_LAYER_H
#define EVA2_CNN_FC_LAYER_H

#include <vector>

#include "cnn/layer.h"

namespace eva2 {

/**
 * The scalar FC body: rows [o0, o1) for nb >= 1 samples,
 * ys[s][o] = biases[o] + sum_i weights[o * in_dim + i] * xs[s][i],
 * with `weights` row-major [out][in]. Each sample's chain starts from
 * the bias and adds one product per input in ascending order, the
 * seed's loop; up to 8 samples' chains interleave in registers.
 * fc_rows_simd (simd/simd_kernels.h) must match it bit for bit; it is
 * also the FC kernel on machines without SIMD.
 */
void fc_rows_scalar(const float *weights, const float *biases,
                    i64 in_dim, i64 o0, i64 o1, const float *const *xs,
                    i64 nb, float *const *ys);

/**
 * Dense layer: flattens its input (whatever its CHW shape) and applies
 * y = Wx + b. Output shape is {out_dim, 1, 1}.
 */
class FcLayer : public Layer
{
  public:
    /**
     * @param in_dim  Flattened input length.
     * @param out_dim Output vector length.
     */
    FcLayer(i64 in_dim, i64 out_dim);

    Tensor forward(const Tensor &in) const override;

    /** The one-sample case of forward_batched. */
    void forward_into(const Tensor &in, Tensor &out) const override;

    /**
     * Forward `nb` same-shape inputs (1 <= nb <= kMaxSuffixBatch) in
     * one pass: fc_rows_simd whenever simd_supported(), fc_rows_scalar
     * otherwise, split across threads by blocks of output neurons.
     * Each block of weight rows is loaded once and dotted against every
     * sample before moving on. An unbatched FC is a matrix-vector
     * product that re-streams the whole weight matrix per sample;
     * batching turns it into a matrix-matrix product whose weight
     * traffic is amortized across the batch — the dominant win of
     * cross-stream suffix batching, since FC weights are the largest
     * tensors the suffix touches. Both kernels run the seed's
     * per-sample chain (bias, then ascending input index), so every
     * sample's output is bit-identical to Network::forward at any nb
     * and on any machine.
     */
    void forward_batched(const Tensor *const *ins, i64 nb,
                         Tensor *const *outs) const;

    Shape out_shape(const Shape &in) const override;
    LayerKind kind() const override { return LayerKind::kFc; }
    i64 macs(const Shape & /* in */) const override
    {
        return in_dim_ * out_dim_;
    }
    bool spatial() const override { return false; }

    i64 in_dim() const { return in_dim_; }
    i64 out_dim() const { return out_dim_; }

    /** Mutable weight storage, row-major [out_dim][in_dim]. */
    std::vector<float> &weights() { return weights_; }
    const std::vector<float> &weights() const { return weights_; }

    /** Mutable bias storage; size out_dim. */
    std::vector<float> &biases() { return biases_; }
    const std::vector<float> &biases() const { return biases_; }

  private:
    i64 in_dim_;
    i64 out_dim_;
    std::vector<float> weights_;
    std::vector<float> biases_;
};

/** Numerically-stable softmax over the flattened input. */
class SoftmaxLayer : public Layer
{
  public:
    Tensor forward(const Tensor &in) const override;
    void forward_into(const Tensor &in, Tensor &out) const override;
    Shape
    out_shape(const Shape &in) const override
    {
        return Shape{in.size(), 1, 1};
    }
    LayerKind kind() const override { return LayerKind::kSoftmax; }
    bool spatial() const override { return false; }
};

} // namespace eva2

#endif // EVA2_CNN_FC_LAYER_H
