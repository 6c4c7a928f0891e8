/**
 * @file
 * Pointwise nonlinearity layers: ReLU and local response normalization.
 * Both are spatial (each output location depends only on the same
 * input location), so they commute with translation exactly and may
 * live in the AMC prefix.
 */
#ifndef EVA2_CNN_ACTIVATION_LAYER_H
#define EVA2_CNN_ACTIVATION_LAYER_H

#include "cnn/layer.h"

namespace eva2 {

/** Rectified linear unit: max(0, x) elementwise. */
class ReluLayer : public Layer
{
  public:
    Tensor forward(const Tensor &in) const override;
    void forward_into(const Tensor &in, Tensor &out) const override;
    Shape out_shape(const Shape &in) const override { return in; }
    LayerKind kind() const override { return LayerKind::kRelu; }
};

/**
 * AlexNet/CNN-M style local response normalization across channels:
 *   out[c] = in[c] / (k + alpha/n * sum_{c'} in[c']^2)^beta
 * with the sum over a window of n channels centred on c.
 */
class LrnLayer : public Layer
{
  public:
    LrnLayer(i64 local_size = 5, float alpha = 1e-4f, float beta = 0.75f,
             float k = 2.0f);

    Tensor forward(const Tensor &in) const override;
    void forward_into(const Tensor &in, Tensor &out) const override;
    Shape out_shape(const Shape &in) const override { return in; }
    LayerKind kind() const override { return LayerKind::kLrn; }

  private:
    i64 local_size_;
    float alpha_;
    float beta_;
    float k_;
};

} // namespace eva2

#endif // EVA2_CNN_ACTIVATION_LAYER_H
