#include "cnn/pool_layer.h"

#include <limits>

namespace eva2 {

MaxPoolLayer::MaxPoolLayer(i64 kernel, i64 stride, i64 pad)
    : kernel_(kernel), stride_(stride), pad_(pad)
{
    require(kernel > 0 && stride > 0 && pad >= 0,
            "pool: invalid window geometry");
}

Shape
MaxPoolLayer::out_shape(const Shape &in) const
{
    return Shape{in.c, conv_out_size(in.h, kernel_, stride_, pad_),
                 conv_out_size(in.w, kernel_, stride_, pad_)};
}

Tensor
MaxPoolLayer::forward(const Tensor &in) const
{
    Tensor out(out_shape(in.shape()));
    forward_into(in, out);
    return out;
}

void
MaxPoolLayer::forward_into(const Tensor &in, Tensor &out) const
{
    const Shape os = out.shape();
    for (i64 c = 0; c < os.c; ++c) {
        for (i64 oy = 0; oy < os.h; ++oy) {
            const i64 base_y = oy * stride_ - pad_;
            for (i64 ox = 0; ox < os.w; ++ox) {
                const i64 base_x = ox * stride_ - pad_;
                // Padded cells count as zero, matching common framework
                // semantics for positive activations after ReLU.
                float best = -std::numeric_limits<float>::infinity();
                bool any = false;
                for (i64 ky = 0; ky < kernel_; ++ky) {
                    const i64 y = base_y + ky;
                    if (y < 0 || y >= in.height()) {
                        continue;
                    }
                    for (i64 kx = 0; kx < kernel_; ++kx) {
                        const i64 x = base_x + kx;
                        if (x < 0 || x >= in.width()) {
                            continue;
                        }
                        best = std::max(best, in.at(c, y, x));
                        any = true;
                    }
                }
                out.at(c, oy, ox) = any ? best : 0.0f;
            }
        }
    }
}

} // namespace eva2
