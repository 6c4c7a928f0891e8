/**
 * @file
 * The abstract CNN layer interface.
 *
 * AMC (Section II of the paper) depends on three per-layer properties
 * beyond plain forward execution: the layer's window geometry (kernel,
 * stride, padding) for receptive-field propagation, whether the layer
 * is *spatial* (its output has a 2D relationship with the input, so
 * activation warping is meaningful), and its multiply-accumulate count
 * for the first-order hardware cost model (Section IV-A).
 */
#ifndef EVA2_CNN_LAYER_H
#define EVA2_CNN_LAYER_H

#include <memory>
#include <string>

#include "tensor/tensor.h"

namespace eva2 {

/** The layer varieties the reproduction models. */
enum class LayerKind
{
    kConv,    ///< 2D convolution (spatial).
    kPool,    ///< Max pooling (spatial).
    kRelu,    ///< Rectified linear unit (spatial, pointwise).
    kLrn,     ///< Local response normalization (spatial, pointwise).
    kFc,      ///< Fully connected (non-spatial).
    kSoftmax, ///< Softmax over a flat vector (non-spatial).
};

/** Printable name of a layer kind. */
const char *layer_kind_name(LayerKind kind);

/**
 * Window geometry of a spatial layer, used by receptive-field
 * propagation. Pointwise layers use kernel = stride = 1, pad = 0.
 */
struct WindowGeometry
{
    i64 kernel = 1;
    i64 stride = 1;
    i64 pad = 0;
};

/**
 * Hard upper bound on batched layer execution (an ExecutionPlan's
 * max_batch, hence the cross-stream suffix batch size, and the
 * batched layer kernels a plan drives). It exists so batched runs
 * can keep their per-lane bookkeeping on the stack (no per-call
 * allocation) and is far above any useful batch — past ~16 the
 * marginal weight-reuse win is gone while batch-formation latency
 * keeps growing.
 */
constexpr i64 kMaxSuffixBatch = 64;

/**
 * Abstract base class for all layers. Layers are stateless with
 * respect to execution: forward() is const and may be called from
 * multiple frames/pipelines concurrently.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Run the layer on one input activation. */
    virtual Tensor forward(const Tensor &in) const = 0;

    /**
     * Run the layer into caller-owned storage, already shaped to
     * out_shape(in.shape()) — in planned execution, a per-worker
     * ScratchArena slot — instead of returning a fresh tensor. The
     * built-in pointwise, pool and FC layers overwrite `out` without
     * allocating; this default covers the rest (ExecutionPlan runs
     * convs itself, see conv_kernels.h) by falling back to forward().
     * `in` and `out` must not alias.
     */
    virtual void
    forward_into(const Tensor &in, Tensor &out) const
    {
        out = forward(in);
    }

    /** Output shape for a given input shape (without executing). */
    virtual Shape out_shape(const Shape &in) const = 0;

    /** The layer's kind tag. */
    virtual LayerKind kind() const = 0;

    /**
     * Number of multiply-accumulate operations to process one input
     * of the given shape. Pointwise layers return 0: the paper's
     * first-order model (Section IV-A) counts only conv and FC MACs,
     * which dominate.
     */
    virtual i64 macs(const Shape & /* in */) const { return 0; }

    /**
     * Whether the output preserves a 2D spatial relationship with the
     * input, i.e. whether activation warping can pass through this
     * layer. FC and softmax layers are non-spatial and must stay in
     * the CNN suffix (Section II-C5).
     */
    virtual bool spatial() const { return true; }

    /** Window geometry for receptive-field propagation. */
    virtual WindowGeometry geometry() const { return {}; }

    /** Layer name used in reports ("conv3_1", "fc6", ...). */
    const std::string &name() const { return name_; }

    /** Set the report name (builders call this). */
    void set_name(std::string name) { name_ = std::move(name); }

  protected:
    Layer() = default;

  private:
    std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace eva2

#endif // EVA2_CNN_LAYER_H
