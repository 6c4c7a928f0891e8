/**
 * @file
 * Max-pooling layer. Pooling is the paper's canonical example of a
 * nonlinearity that only approximately commutes with translation
 * (Figure 4e), so its exact semantics matter to the AMC error model.
 */
#ifndef EVA2_CNN_POOL_LAYER_H
#define EVA2_CNN_POOL_LAYER_H

#include "cnn/layer.h"
#include "util/math_util.h"

namespace eva2 {

/** Square-window max pooling with symmetric zero padding. */
class MaxPoolLayer : public Layer
{
  public:
    MaxPoolLayer(i64 kernel, i64 stride, i64 pad = 0);

    Tensor forward(const Tensor &in) const override;
    void forward_into(const Tensor &in, Tensor &out) const override;
    Shape out_shape(const Shape &in) const override;
    LayerKind kind() const override { return LayerKind::kPool; }
    WindowGeometry geometry() const override
    {
        return {kernel_, stride_, pad_};
    }

    i64 kernel() const { return kernel_; }
    i64 stride() const { return stride_; }
    i64 pad() const { return pad_; }

  private:
    i64 kernel_;
    i64 stride_;
    i64 pad_;
};

} // namespace eva2

#endif // EVA2_CNN_POOL_LAYER_H
