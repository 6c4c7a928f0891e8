/**
 * @file
 * google-benchmark microbenches for the hot kernels: RFBME (tile
 * reuse) vs the naive reference, dense optical flow, activation
 * warping, the RLE codec, and the conv engine (seed direct loop vs
 * the planned im2col/blocked-GEMM kernel). These quantify the
 * software-side cost ordering the paper's hardware exploits: motion
 * estimation and warping must be orders of magnitude cheaper than
 * the CNN prefix they replace — and, on the serving side, how much
 * of the per-frame CNN cost planned execution recovers.
 *
 * Usage: bench_micro_kernels [--json PATH] [google-benchmark flags]
 * --json writes the standard google-benchmark JSON report to PATH
 * (shorthand for --benchmark_out=PATH --benchmark_out_format=json),
 * matching the BENCH_*.json convention of the other benches.
 */
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "cnn/conv_kernels.h"
#include "cnn/conv_layer.h"
#include "cnn/execution_plan.h"
#include "cnn/fc_layer.h"
#include "cnn/kernel_tuner.h"
#include "cnn/model_zoo.h"
#include "core/amc_pipeline.h"
#include "core/warp.h"
#include "flow/optical_flow.h"
#include "flow/rfbme.h"
#include "flow/sad_kernels.h"
#include "simd/simd_kernels.h"
#include "sparse/rle.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

Tensor
test_frame(i64 size, u64 seed, i64 frame)
{
    SyntheticVideo video(object_scene(seed, 3, 2.0, size));
    return video.render(frame).image;
}

RfbmeConfig
faster_rf_config()
{
    // conv5-style receptive field on a 192px frame.
    RfbmeConfig cfg;
    cfg.rf_size = 32;
    cfg.rf_stride = 16;
    cfg.rf_pad = 0;
    cfg.search_radius = 24;
    cfg.search_stride = 2;
    return cfg;
}

void
BM_RfbmeOptimized(benchmark::State &state)
{
    const Tensor key = test_frame(192, 7, 0);
    const Tensor cur = test_frame(192, 7, 4);
    const RfbmeConfig cfg = faster_rf_config();
    for (auto _ : state) {
        benchmark::DoNotOptimize(rfbme(key, cur, cfg));
    }
}
BENCHMARK(BM_RfbmeOptimized)->Unit(benchmark::kMillisecond);

void
BM_RfbmeNaive(benchmark::State &state)
{
    const Tensor key = test_frame(192, 7, 0);
    const Tensor cur = test_frame(192, 7, 4);
    const RfbmeConfig cfg = faster_rf_config();
    for (auto _ : state) {
        benchmark::DoNotOptimize(rfbme_naive(key, cur, cfg));
    }
}
BENCHMARK(BM_RfbmeNaive)->Unit(benchmark::kMillisecond);

void
BM_LucasKanade(benchmark::State &state)
{
    const Tensor key = test_frame(192, 7, 0);
    const Tensor cur = test_frame(192, 7, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lucas_kanade(cur, key));
    }
}
BENCHMARK(BM_LucasKanade)->Unit(benchmark::kMillisecond);

void
BM_HornSchunck(benchmark::State &state)
{
    const Tensor key = test_frame(192, 7, 0);
    const Tensor cur = test_frame(192, 7, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(horn_schunck(cur, key));
    }
}
BENCHMARK(BM_HornSchunck)->Unit(benchmark::kMillisecond);

void
BM_WarpActivation(benchmark::State &state)
{
    const i64 c = state.range(0);
    Tensor act(c, 12, 12);
    Rng rng(3);
    for (i64 i = 0; i < act.size(); ++i) {
        act[i] = rng.uniform_f(0.0f, 1.0f);
    }
    const MotionField field =
        MotionField::uniform(12, 12, Vec2{4.7, -9.3});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            warp_activation(act, field, 16, InterpMode::kBilinear));
    }
}
BENCHMARK(BM_WarpActivation)->Arg(64)->Arg(256)->Arg(512);

void
BM_RleRoundTrip(benchmark::State &state)
{
    const double density = static_cast<double>(state.range(0)) / 100.0;
    Tensor act(64, 12, 12);
    Rng rng(5);
    for (i64 i = 0; i < act.size(); ++i) {
        act[i] = rng.uniform(0.0, 1.0) < density
                     ? rng.uniform_f(0.1f, 4.0f)
                     : 0.0f;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(rle_decode(rle_encode(act)));
    }
}
BENCHMARK(BM_RleRoundTrip)->Arg(10)->Arg(50);

// --------------------------------------------------------------------
// Conv engine: seed direct kernel vs planned im2col/blocked GEMM.
// The CI smoke shapes; the acceptance bar is planned-GEMM throughput
// >= 2x direct on these.

struct ConvShape
{
    const char *label;
    i64 in_c, out_c, kernel, stride, pad, size;
};

constexpr ConvShape kConvShapes[] = {
    {"3x3_pad1_64px", 32, 64, 3, 1, 1, 64},
    {"5x5_stride2_96px", 16, 32, 5, 2, 2, 96},
    {"1x1_56px", 64, 64, 1, 1, 0, 56},
};

Network
conv_shape_net(const ConvShape &s)
{
    Network net(s.label, Shape{s.in_c, s.size, s.size});
    auto conv = std::make_unique<ConvLayer>(s.in_c, s.out_c, s.kernel,
                                            s.stride, s.pad);
    Rng rng(11);
    for (float &w : conv->weights()) {
        w = rng.uniform_f(-0.5f, 0.5f);
    }
    for (float &b : conv->biases()) {
        b = rng.uniform_f(-0.5f, 0.5f);
    }
    net.add(std::move(conv));
    return net;
}

Tensor
conv_shape_input(const ConvShape &s)
{
    Tensor in(s.in_c, s.size, s.size);
    Rng rng(13);
    for (i64 i = 0; i < in.size(); ++i) {
        in[i] = rng.uniform_f(-1.0f, 1.0f);
    }
    return in;
}

void
BM_ConvDirect(benchmark::State &state)
{
    // The seed kernel Network::forward runs, into a pre-shaped output.
    const ConvShape &shape = kConvShapes[state.range(0)];
    const Network net = conv_shape_net(shape);
    const auto &conv = static_cast<const ConvLayer &>(net.layer(0));
    const ConvGeometry g{shape.in_c, shape.out_c, shape.kernel,
                         shape.stride, shape.pad};
    const Tensor in = conv_shape_input(shape);
    Tensor out(conv.out_shape(in.shape()));
    for (auto _ : state) {
        conv_direct(in, g, conv.weights().data(), conv.biases().data(),
                    out);
        benchmark::DoNotOptimize(out.data().data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(shape.label);
    state.SetItemsProcessed(state.iterations() * net.layer_macs(0));
}
BENCHMARK(BM_ConvDirect)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void
BM_ConvIm2colGemm(benchmark::State &state)
{
    // The conv as a compiled plan runs it.
    const ConvShape &shape = kConvShapes[state.range(0)];
    const Network net = conv_shape_net(shape);
    const Tensor in = conv_shape_input(shape);
    const ExecutionPlan plan(net);
    ScratchArena arena;
    for (auto _ : state) {
        benchmark::DoNotOptimize(&plan.run(in, arena));
    }
    state.SetLabel(shape.label);
    state.SetItemsProcessed(state.iterations() * net.layer_macs(0));
}
BENCHMARK(BM_ConvIm2colGemm)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------
// Variant-keyed rows for the perf-regression baseline. Names follow
// `<kernel>/<variant>/<shape>` so the CI baseline diff has stable
// (kernel, variant, shape) identifiers: `conv_gemm/<variant>/<shape>`
// for each GEMM micro-kernel (scalar + every SIMD register tile when
// the machine supports it), `conv_tuned/<shape>` for the autotuned
// end-to-end plan, and `fc/<scalar|simd>/<dims>` for the scalar FC
// body and the bit-exact SIMD FC kernel. Registered from main() so
// the SIMD rows can be gated on the *runtime* cpuid check, not just
// the compile-time ISA.

void
conv_variant_bench(benchmark::State &state, const ConvShape &shape,
                   GemmVariant variant)
{
    const ConvGeometry g{shape.in_c, shape.out_c, shape.kernel,
                         shape.stride, shape.pad};
    ConvLayer conv(shape.in_c, shape.out_c, shape.kernel, shape.stride,
                   shape.pad);
    Rng rng(11);
    for (float &w : conv.weights()) {
        w = rng.uniform_f(-0.5f, 0.5f);
    }
    for (float &b : conv.biases()) {
        b = rng.uniform_f(-0.5f, 0.5f);
    }
    const Tensor in = conv_shape_input(shape);
    Tensor out(conv.out_shape(in.shape()));
    const Tensor *ins[1] = {&in};
    Tensor *outs[1] = {&out};
    Tensor col;
    for (auto _ : state) {
        conv_im2col_gemm(ins, 1, g, conv.weights().data(),
                         conv.biases().data(), outs, col,
                         /*gemm_out=*/nullptr, /*fuse_relu=*/true,
                         variant);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            conv.macs(in.shape()));
}

void
conv_tuned_bench(benchmark::State &state, const ConvShape &shape)
{
    const Network net = conv_shape_net(shape);
    const Tensor in = conv_shape_input(shape);
    PlanOptions opts;
    opts.tune = true;
    const ExecutionPlan plan(net, opts);
    ScratchArena arena;
    for (auto _ : state) {
        benchmark::DoNotOptimize(&plan.run(in, arena));
    }
    state.SetLabel(plan.describe().front().variant);
    state.SetItemsProcessed(state.iterations() * net.layer_macs(0));
}

void
fc_bench(benchmark::State &state, i64 in_dim, i64 out_dim, bool simd)
{
    FcLayer fc(in_dim, out_dim);
    Rng rng(17);
    for (float &w : fc.weights()) {
        w = rng.uniform_f(-0.5f, 0.5f);
    }
    for (float &b : fc.biases()) {
        b = rng.uniform_f(-0.5f, 0.5f);
    }
    std::vector<float> in(static_cast<size_t>(in_dim));
    for (float &x : in) {
        x = rng.uniform_f(-1.0f, 1.0f);
    }
    std::vector<float> out(static_cast<size_t>(out_dim));
    const float *xs[1] = {in.data()};
    float *ys[1] = {out.data()};
    // Both rows call their kernel directly on one thread, over every
    // output neuron, so the ratio is the kernel's alone.
    const auto rows = simd ? fc_rows_simd : fc_rows_scalar;
    for (auto _ : state) {
        rows(fc.weights().data(), fc.biases().data(), in_dim, 0, out_dim,
             xs, 1, ys);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * in_dim * out_dim);
}

// --------------------------------------------------------------------
// Sparse-direct warp vs decode-then-warp, on channel-structured
// sparse activations. Post-ReLU activations after the storage RMS
// prune are not uniform scatter: sparsity is per-channel (weak
// channels go entirely dark — measured 10-22% fully-empty channels
// on the scaled pipeline's stored target activations, with live
// channels spanning a wide density range). The generator mirrors
// that: `dead` fraction of channels empty, live channels at
// uniform(density_lo, density_hi) each. Two sparsity points per the
// storage ablation's sweep: `s85` is the moderate post-prune mix,
// `s97` the long-run regime the ablation's 99%-sparsity table (and
// the hibernate tier's stored state) lives in — the sparse-direct
// path's structural advantage (skipping the gather for dark
// channels, no dense round trip) scales with sparsity, so the
// committed s97 ratios are the headline speedup and the s85 row
// pins the moderate case against regressions. Each `warp/rle/...`
// row is anchored to the same run's `warp/decode/...`: the committed
// ratio encodes the speedup the sparse-direct path must keep
// delivering.

struct WarpShape
{
    const char *label;
    i64 c, h, w;
    double dead;       ///< Fraction of fully-pruned channels.
    double density_lo; ///< Min per-channel nonzero fraction.
    double density_hi; ///< Max per-channel nonzero fraction.
};

constexpr WarpShape kWarpShapes[] = {
    {"c256_14x14_s85", 256, 14, 14, 0.15, 0.05, 0.30},
    {"c256_14x14_s97", 256, 14, 14, 0.30, 0.01, 0.10},
    {"c384_13x13_s97", 384, 13, 13, 0.30, 0.01, 0.10},
};

RleActivation
warp_rle_input(const WarpShape &s)
{
    Tensor act(s.c, s.h, s.w);
    Rng rng(23);
    const i64 n = s.h * s.w;
    for (i64 c = 0; c < s.c; ++c) {
        if (rng.chance(s.dead)) {
            continue;
        }
        const double density = rng.uniform(s.density_lo, s.density_hi);
        for (i64 i = c * n; i < (c + 1) * n; ++i) {
            act[i] = rng.chance(density) ? rng.uniform_f(0.1f, 4.0f)
                                         : 0.0f;
        }
    }
    return rle_encode(act);
}

void
warp_decode_bench(benchmark::State &state, const WarpShape &shape)
{
    const RleActivation key = warp_rle_input(shape);
    const MotionField field =
        MotionField::uniform(shape.h, shape.w, Vec2{4.7, -9.3});
    Tensor out(key.shape);
    for (auto _ : state) {
        // The pre-sparse-direct hot path: materialize the dense
        // activation, then warp it.
        const Tensor dense = rle_decode(key);
        warp_activation_into(dense, field, 16, InterpMode::kBilinear,
                             out);
        benchmark::DoNotOptimize(out.data().data());
    }
}

void
warp_rle_bench(benchmark::State &state, const WarpShape &shape)
{
    const RleActivation key = warp_rle_input(shape);
    const MotionField field =
        MotionField::uniform(shape.h, shape.w, Vec2{4.7, -9.3});
    Tensor out(key.shape);
    for (auto _ : state) {
        warp_activation_rle_into(key, field, 16,
                                 InterpMode::kBilinear, out);
        benchmark::DoNotOptimize(out.data().data());
    }
}

// --------------------------------------------------------------------
// RFBME diff-tile producer, scalar vs SIMD variant, and the raw SAD
// span kernels underneath. `rf16_192px` is the interior-dominated CI
// smoke shape (conv5-style field on a 192px frame: almost every tile
// hits the full-vector interior path) — the committed
// `rfbme/simd/...` ratio against the same-run scalar anchor is the
// >=2x acceptance bar. `rf2_96px` exercises the s=2 cross-tile
// vector path, where border tiles claw back a bigger share.

struct RfbmeShape
{
    const char *label;
    i64 size;
    RfbmeConfig cfg;
};

const RfbmeShape kRfbmeShapes[] = {
    {"rf16_192px", 192, faster_rf_config()},
    {"rf2_96px", 96, {4, 2, 1, 12, 2}},
};

void
rfbme_variant_bench(benchmark::State &state, const RfbmeShape &shape,
                    RfbmeVariant variant)
{
    const Tensor key = test_frame(shape.size, 7, 0);
    const Tensor cur = test_frame(shape.size, 7, 4);
    RfbmeConfig cfg = shape.cfg;
    cfg.variant = variant;
    RfbmeResult result;
    RfbmeWorkspace ws;
    for (auto _ : state) {
        rfbme_into(key, cur, cfg, result, ws);
        benchmark::DoNotOptimize(result.total_error);
    }
    state.SetItemsProcessed(state.iterations() * result.add_ops);
}

void
rfbme_tile_row_bench(benchmark::State &state, i64 s, bool simd)
{
    // The interior-dominated producer kernel itself: full tile rows
    // on a 192px-wide frame, no border clipping — the work RFBME's
    // default SIMD producer speeds up and the shape the SIMD >= 2x CI
    // gate holds. End-to-end rfbme/<variant>/<shape> rows above
    // dilute the kernel with the shared (variant-independent)
    // prefix-sum and min-search stages.
    const i64 w = 192;
    const i64 tiles = w / s;
    const i64 rows = 64;
    std::vector<float> a(w * rows), b(w * rows);
    Rng rng(31);
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = rng.uniform_f(0.0f, 1.0f);
        b[i] = rng.uniform_f(0.0f, 1.0f);
    }
    std::vector<double> acc(tiles, 0.0);
    const auto tile_row = simd ? &sad_tile_row_simd : &sad_tile_row;
    for (auto _ : state) {
        for (i64 y = 0; y < rows; ++y) {
            tile_row(a.data() + y * w, b.data() + y * w, tiles, s,
                     acc.data());
        }
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * w);
}

void
sad_variant_bench(benchmark::State &state, i64 n, bool simd)
{
    std::vector<float> a(n), b(n);
    Rng rng(29);
    for (i64 i = 0; i < n; ++i) {
        a[i] = rng.uniform_f(0.0f, 1.0f);
        b[i] = rng.uniform_f(0.0f, 1.0f);
    }
    const auto sad = simd ? &sad_span_simd : &sad_span;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sad(a.data(), b.data(), n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void
register_variant_benches()
{
    for (const RfbmeShape &shape : kRfbmeShapes) {
        for (const RfbmeVariant v :
             {RfbmeVariant::kScalar, RfbmeVariant::kSimd}) {
            if (v == RfbmeVariant::kSimd && !simd_supported()) {
                continue;
            }
            const std::string name = std::string("rfbme/") +
                                     rfbme_variant_name(v) + "/" +
                                     shape.label;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [shape, v](benchmark::State &state) {
                    rfbme_variant_bench(state, shape, v);
                })
                ->Unit(benchmark::kMillisecond);
        }
    }
    const i64 tile_strides[] = {2, 16};
    for (const i64 s : tile_strides) {
        for (const bool simd : {false, true}) {
            if (simd && !simd_supported()) {
                continue;
            }
            const std::string name = std::string("rfbme/") +
                                     (simd ? "simd" : "scalar") +
                                     "/tilerow" + std::to_string(s);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [s, simd](benchmark::State &state) {
                    rfbme_tile_row_bench(state, s, simd);
                })
                ->Unit(benchmark::kMicrosecond);
        }
    }
    const i64 sad_lens[] = {16, 1024};
    for (const i64 n : sad_lens) {
        for (const bool simd : {false, true}) {
            if (simd && !simd_supported()) {
                continue;
            }
            const std::string name =
                std::string("sad/") + (simd ? "simd" : "scalar") +
                "/n" + std::to_string(n);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [n, simd](benchmark::State &state) {
                    sad_variant_bench(state, n, simd);
                })
                ->Unit(benchmark::kNanosecond);
        }
    }
    for (const WarpShape &shape : kWarpShapes) {
        const std::string decode =
            std::string("warp/decode/") + shape.label;
        benchmark::RegisterBenchmark(
            decode.c_str(),
            [shape](benchmark::State &state) {
                warp_decode_bench(state, shape);
            })
            ->Unit(benchmark::kMicrosecond);
        const std::string rle =
            std::string("warp/rle/") + shape.label;
        benchmark::RegisterBenchmark(
            rle.c_str(),
            [shape](benchmark::State &state) {
                warp_rle_bench(state, shape);
            })
            ->Unit(benchmark::kMicrosecond);
    }
    for (const ConvShape &shape : kConvShapes) {
        std::vector<GemmVariant> variants = {GemmVariant::kScalar};
        if (simd_supported()) {
            for (const GemmVariant v : simd_gemm_variants()) {
                variants.push_back(v);
            }
        }
        for (const GemmVariant v : variants) {
            const std::string name = std::string("conv_gemm/") +
                                     gemm_variant_name(v) + "/" +
                                     shape.label;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [shape, v](benchmark::State &state) {
                    conv_variant_bench(state, shape, v);
                })
                ->Unit(benchmark::kMillisecond);
        }
        const std::string tuned =
            std::string("conv_tuned/") + shape.label;
        benchmark::RegisterBenchmark(
            tuned.c_str(),
            [shape](benchmark::State &state) {
                conv_tuned_bench(state, shape);
            })
            ->Unit(benchmark::kMillisecond);
    }
    const struct
    {
        i64 in_dim, out_dim;
    } fc_shapes[] = {{2048, 512}, {4096, 64}};
    for (const auto &s : fc_shapes) {
        for (const bool simd : {false, true}) {
            if (simd && !simd_supported()) {
                continue;
            }
            const std::string name =
                std::string("fc/") + (simd ? "simd" : "scalar") +
                "/in" + std::to_string(s.in_dim) + "_out" +
                std::to_string(s.out_dim);
            const i64 in_dim = s.in_dim;
            const i64 out_dim = s.out_dim;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [in_dim, out_dim, simd](benchmark::State &state) {
                    fc_bench(state, in_dim, out_dim, simd);
                })
                ->Unit(benchmark::kMillisecond);
        }
    }
}

void
BM_ConvPrefixFasterM(benchmark::State &state)
{
    ScaledBuildOptions opts;
    opts.input = Shape{1, 192, 192};
    const Network net = build_scaled(fasterm_spec(), opts);
    const Tensor frame = test_frame(192, 7, 0);
    const i64 target = net.find_layer(fasterm_spec().late_target);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward_prefix(frame, target));
    }
}
BENCHMARK(BM_ConvPrefixFasterM)->Unit(benchmark::kMillisecond);

void
BM_PlannedPrefixFasterM(benchmark::State &state)
{
    // The same prefix as BM_ConvPrefixFasterM, through a compiled
    // plan: GEMM convs, fused ReLU, arena reuse.
    ScaledBuildOptions opts;
    opts.input = Shape{1, 192, 192};
    const Network net = build_scaled(fasterm_spec(), opts);
    const Tensor frame = test_frame(192, 7, 0);
    const i64 target = net.find_layer(fasterm_spec().late_target);
    const ExecutionPlan plan(net, 0, target + 1, net.input_shape());
    ScratchArena arena;
    for (auto _ : state) {
        benchmark::DoNotOptimize(&plan.run(frame, arena));
    }
}
BENCHMARK(BM_PlannedPrefixFasterM)->Unit(benchmark::kMillisecond);

void
BM_PredictedFrameFasterM(benchmark::State &state)
{
    ScaledBuildOptions opts;
    opts.input = Shape{1, 192, 192};
    const Network net = build_scaled(fasterm_spec(), opts);
    AmcPipeline pipeline(net, std::make_unique<StaticRatePolicy>(1000));
    pipeline.process(test_frame(192, 7, 0));
    const Tensor cur = test_frame(192, 7, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pipeline.run_predicted(cur));
    }
}
BENCHMARK(BM_PredictedFrameFasterM)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace eva2

int
main(int argc, char **argv)
{
    // Translate the repo-standard `--json PATH` into the benchmark
    // library's output flags, pass everything else through.
    std::vector<std::string> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            args.push_back(std::string("--benchmark_out=") +
                           argv[++i]);
            args.push_back("--benchmark_out_format=json");
        } else {
            args.push_back(argv[i]);
        }
    }
    std::vector<char *> argv2;
    for (std::string &a : args) {
        argv2.push_back(a.data());
    }
    int argc2 = static_cast<int>(argv2.size());
    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) {
        return 1;
    }
    eva2::register_variant_benches();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
