#include "cnn/fc_layer.h"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.h"
#include "simd/simd_kernels.h"

namespace eva2 {

namespace {

/**
 * One neuron's accumulation over a compile-time block of NB samples:
 * NB independent chains held in registers (a runtime-sized
 * accumulator array spills to memory and serializes through
 * store-forwarding, which is slower than the plain single chain).
 * Each sample sums taps in ascending input order — bit-identical to
 * the unbatched loop.
 */
template <int NB>
inline void
fc_accumulate(const float *w, float bias, const float *const *xs,
              i64 in_dim, float *out)
{
    float acc[NB];
    for (int s = 0; s < NB; ++s) {
        acc[s] = bias;
    }
    for (i64 i = 0; i < in_dim; ++i) {
        const float wi = w[i];
        for (int s = 0; s < NB; ++s) {
            acc[s] += wi * xs[s][i];
        }
    }
    for (int s = 0; s < NB; ++s) {
        out[s] = acc[s];
    }
}

/** Sample block width: 8 chains fill the add pipeline without
 * register spills, and 8 input vectors stay cache-resident. */
constexpr i64 kFcBlock = 8;

void
fc_accumulate_block(const float *w, float bias,
                    const float *const *xs, i64 nb, i64 in_dim,
                    float *out)
{
    switch (nb) {
      case 1: fc_accumulate<1>(w, bias, xs, in_dim, out); break;
      case 2: fc_accumulate<2>(w, bias, xs, in_dim, out); break;
      case 3: fc_accumulate<3>(w, bias, xs, in_dim, out); break;
      case 4: fc_accumulate<4>(w, bias, xs, in_dim, out); break;
      case 5: fc_accumulate<5>(w, bias, xs, in_dim, out); break;
      case 6: fc_accumulate<6>(w, bias, xs, in_dim, out); break;
      case 7: fc_accumulate<7>(w, bias, xs, in_dim, out); break;
      case 8: fc_accumulate<8>(w, bias, xs, in_dim, out); break;
      default:
        throw InternalError("fc block width out of range");
    }
}

/** Output neurons per parallel_for task: one AVX2 lane block, and
 * enough scalar rows to amortize the claim. */
constexpr i64 kFcRowsPerTask = 8;

} // namespace

void
fc_rows_scalar(const float *weights, const float *biases, i64 in_dim,
               i64 o0, i64 o1, const float *const *xs, i64 nb,
               float *const *ys)
{
    float acc[kFcBlock];
    for (i64 o = o0; o < o1; ++o) {
        const float *w = weights + o * in_dim;
        for (i64 s0 = 0; s0 < nb; s0 += kFcBlock) {
            const i64 blk = std::min<i64>(kFcBlock, nb - s0);
            fc_accumulate_block(w, biases[o], xs + s0, blk, in_dim, acc);
            for (i64 s = 0; s < blk; ++s) {
                ys[s0 + s][o] = acc[s];
            }
        }
    }
}

FcLayer::FcLayer(i64 in_dim, i64 out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(static_cast<size_t>(in_dim * out_dim), 0.0f),
      biases_(static_cast<size_t>(out_dim), 0.0f)
{
    require(in_dim > 0 && out_dim > 0, "fc: dimensions must be positive");
}

Shape
FcLayer::out_shape(const Shape &in) const
{
    require(in.size() == in_dim_,
            "fc: input " + in.str() + " flattens to " +
                std::to_string(in.size()) + " but layer expects " +
                std::to_string(in_dim_));
    return Shape{out_dim_, 1, 1};
}

Tensor
FcLayer::forward(const Tensor &in) const
{
    Tensor out(out_shape(in.shape()));
    forward_into(in, out);
    return out;
}

void
FcLayer::forward_into(const Tensor &in, Tensor &out) const
{
    const Tensor *ins[1] = {&in};
    Tensor *outs[1] = {&out};
    forward_batched(ins, 1, outs);
}

void
FcLayer::forward_batched(const Tensor *const *ins, i64 nb,
                         Tensor *const *outs) const
{
    // Per-frame hot path: build the failure message only on failure.
    if (nb < 1 || nb > kMaxSuffixBatch) {
        throw ConfigError("fc: batch must be in [1, " +
                          std::to_string(kMaxSuffixBatch) + "], got " +
                          std::to_string(nb));
    }
    const float *xs[kMaxSuffixBatch];
    float *ys[kMaxSuffixBatch];
    for (i64 s = 0; s < nb; ++s) {
        xs[s] = ins[s]->data().data();
        ys[s] = outs[s]->data().data();
    }
    const auto rows = simd_supported() ? fc_rows_simd : fc_rows_scalar;
    // Output neurons are independent and write disjoint elements, so
    // the split is bit-identical to the serial loop (same per-neuron
    // accumulation order) — the ConvLayer pattern, applied to the
    // non-spatial suffix.
    parallel_for(0, (out_dim_ + kFcRowsPerTask - 1) / kFcRowsPerTask,
                 [&](i64 task) {
                     const i64 o0 = task * kFcRowsPerTask;
                     rows(weights_.data(), biases_.data(), in_dim_, o0,
                          std::min(o0 + kFcRowsPerTask, out_dim_), xs,
                          nb, ys);
                 });
}

Tensor
SoftmaxLayer::forward(const Tensor &in) const
{
    Tensor out(out_shape(in.shape()));
    forward_into(in, out);
    return out;
}

void
SoftmaxLayer::forward_into(const Tensor &in, Tensor &out) const
{
    float max_v = -std::numeric_limits<float>::infinity();
    for (i64 i = 0; i < in.size(); ++i) {
        max_v = std::max(max_v, in[i]);
    }
    double denom = 0.0;
    for (i64 i = 0; i < in.size(); ++i) {
        double e = std::exp(static_cast<double>(in[i] - max_v));
        out[i] = static_cast<float>(e);
        denom += e;
    }
    for (i64 i = 0; i < in.size(); ++i) {
        out[i] = static_cast<float>(out[i] / denom);
    }
}

} // namespace eva2
