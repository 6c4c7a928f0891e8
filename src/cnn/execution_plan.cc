#include "cnn/execution_plan.h"

#include <algorithm>

#include "cnn/conv_layer.h"
#include "cnn/fc_layer.h"
#include "cnn/kernel_tuner.h"

namespace eva2 {

namespace {

/** Human-readable variant for one compiled step (reports). */
std::string
step_variant(const Layer &layer, GemmVariant conv_variant)
{
    if (layer.kind() == LayerKind::kConv) {
        return gemm_variant_name(conv_variant);
    }
    if (layer.kind() == LayerKind::kFc) {
        return simd_supported() ? "simd" : "scalar";
    }
    return "";
}

} // namespace

ExecutionPlan::ExecutionPlan(const Network &net, i64 begin, i64 end,
                             Shape in_shape, PlanOptions opts,
                             i64 max_batch)
    : net_(&net),
      begin_(begin),
      end_(end),
      in_shape_(in_shape),
      out_shape_(in_shape),
      max_batch_(max_batch),
      opts_(opts)
{
    require(begin >= 0 && end <= net.num_layers() && begin <= end,
            "execution plan: bad layer range [" + std::to_string(begin) +
                ", " + std::to_string(end) + ") for network " +
                net.name());
    require(max_batch >= 1 && max_batch <= kMaxSuffixBatch,
            "execution plan: max_batch must be in [1, " +
                std::to_string(kMaxSuffixBatch) + "], got " +
                std::to_string(max_batch));
    Shape s = in_shape;
    i64 parity = 0;
    for (i64 i = begin; i < end; ++i) {
        const Layer &layer = net.layer(i);
        Step step;
        step.layer = &layer;
        step.layer_index = i;
        step.out_shape = layer.out_shape(s);
        step.parity = parity;
        if (layer.kind() == LayerKind::kConv) {
            if (i + 1 < end &&
                net.layer(i + 1).kind() == LayerKind::kRelu) {
                // ReLU preserves shape, so the fused step's output
                // shape is the conv's.
                step.fuse_relu = true;
                ++i;
            }
            const WindowGeometry g = layer.geometry();
            step.conv = ConvGeometry{s.c, step.out_shape.c, g.kernel,
                                     g.stride, g.pad};
            if (opts.tune) {
                // After the fuse decision: fusion is part of the
                // tuning key (it changes the kernel's epilogue). The
                // contest runs on the per-sample shape, so every
                // max_batch agrees on one variant.
                step.conv_variant = tune_conv_gemm(
                    step.conv, step.out_shape.h, step.out_shape.w,
                    step.fuse_relu, opts.tune_budget_us);
            }
        }
        s = step.out_shape;
        parity ^= 1;
        steps_.push_back(step);
    }
    out_shape_ = s;
}

void
ExecutionPlan::run(const Tensor *const *inputs, i64 n, const Tensor **outs,
                   ScratchArena &arena) const
{
    // Per-frame hot path: build failure messages only on failure.
    if (n < 1 || n > max_batch_) {
        throw ConfigError("execution plan: batch size " +
                          std::to_string(n) + " outside [1, " +
                          std::to_string(max_batch_) + "]");
    }
    for (i64 i = 0; i < n; ++i) {
        if (inputs[i]->shape() != in_shape_) {
            throw ConfigError("execution plan: sample " +
                              std::to_string(i) + " shape " +
                              inputs[i]->shape().str() +
                              " does not match compiled shape " +
                              in_shape_.str());
        }
    }
    if (steps_.empty()) {
        std::copy(inputs, inputs + n, outs);
        return;
    }
    // If a lane's input *is* the slot its first step would write
    // (e.g. chaining two plans through one arena), shift that lane's
    // ping-pong parity so no step reads the tensor it is writing.
    const Tensor *cur[kMaxSuffixBatch];
    i64 flip[kMaxSuffixBatch];
    Tensor *louts[kMaxSuffixBatch];
    for (i64 i = 0; i < n; ++i) {
        cur[i] = inputs[i];
        flip[i] = arena.peek(lane_slot(i, 0)) == inputs[i] ? 1 : 0;
    }
    for (const Step &step : steps_) {
        for (i64 i = 0; i < n; ++i) {
            louts[i] = &arena.slot(lane_slot(i, step.parity ^ flip[i]),
                                   step.out_shape);
        }
        if (step.layer->kind() == LayerKind::kConv) {
            const auto *conv = static_cast<const ConvLayer *>(step.layer);
            const i64 cols = n * step.out_shape.h * step.out_shape.w;
            Tensor &col = arena.slot(
                col_slot(), Shape{1, im2col_rows(step.conv), cols});
            Tensor *gemm_out =
                n > 1 ? &arena.slot(gemm_slot(),
                                    Shape{1, step.conv.out_c, cols})
                      : nullptr;
            conv_im2col_gemm(cur, n, step.conv, conv->weights().data(),
                             conv->biases().data(), louts, col, gemm_out,
                             step.fuse_relu, step.conv_variant);
        } else if (step.layer->kind() == LayerKind::kFc) {
            static_cast<const FcLayer *>(step.layer)->forward_batched(
                cur, n, louts);
        } else {
            for (i64 i = 0; i < n; ++i) {
                step.layer->forward_into(*cur[i], *louts[i]);
            }
        }
        std::copy(louts, louts + n, cur);
    }
    std::copy(cur, cur + n, outs);
}

const Tensor &
ExecutionPlan::run(const Tensor &in, ScratchArena &arena) const
{
    const Tensor *in_ptr = &in;
    const Tensor *out = nullptr;
    run(&in_ptr, 1, &out, arena);
    return *out;
}

Tensor
ExecutionPlan::forward(const Tensor &in) const
{
    return run(in, ScratchArena::for_current_thread());
}

std::vector<PlanStepInfo>
ExecutionPlan::describe() const
{
    std::vector<PlanStepInfo> out;
    out.reserve(steps_.size());
    for (const Step &step : steps_) {
        PlanStepInfo info;
        info.layer_index = step.layer_index;
        info.layer = step.layer->name().empty()
                         ? layer_kind_name(step.layer->kind())
                         : step.layer->name();
        info.kernel = step.layer->kind() == LayerKind::kConv
                          ? "im2col_gemm"
                          : layer_kind_name(step.layer->kind());
        info.variant = step_variant(*step.layer, step.conv_variant);
        info.fused_relu = step.fuse_relu;
        info.out = step.out_shape;
        out.push_back(std::move(info));
    }
    return out;
}

} // namespace eva2
