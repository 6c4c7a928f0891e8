/**
 * @file
 * Tests for the SIMD kernel backend and its two-tier verification
 * contract (docs/simd_kernels.md):
 *
 *  - tier 1, bit-exact: the scalar kernels stay the reference oracle,
 *    and the lane-parallel SIMD kernels that only reorder value-safe
 *    ops (FC, ReLU, warp gather/select, the SAD span/tile kernels)
 *    must match them bit for bit;
 *  - tier 2, bounded divergence: the fma GEMM register tiles may
 *    differ from the scalar chains only within a small ulp/absolute
 *    envelope, and end-task results (classification argmax) must be
 *    unchanged.
 *
 * Plus the ulp-distance helpers the envelope is measured with, the
 * per-shape autotuner (determinism, process-wide caching), the
 * `kernel=tuned` registry spec, zero-steady-state allocation of tuned
 * plans, bit identity of tuned plans across batch shapes, and the
 * RunReport provenance rows (simd_isa, per-step variant).
 *
 * Every SIMD-dependent case self-skips when simd_supported() is
 * false, so this suite stays green on the EVA2_SIMD=OFF CI leg and on
 * machines without AVX2.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "api/run_report.h"
#include "cnn/conv_kernels.h"
#include "cnn/conv_layer.h"
#include "cnn/execution_plan.h"
#include "cnn/fc_layer.h"
#include "cnn/kernel_tuner.h"
#include "cnn/model_zoo.h"
#include "flow/sad_kernels.h"
#include "simd/simd_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

/// Divergence envelope for the bounded-divergence kernels: fma drops
/// one rounding per tap of a long dot product, so per-tap rounding
/// differences accumulate. 64 ulps is orders of magnitude
/// tighter than any task-level tolerance while leaving room for the
/// longest suffix reductions; the absolute escape covers results near
/// zero, where a single reordered rounding can cross many ulps.
constexpr i64 kMaxUlp = 64;
constexpr double kMaxAbs = 1e-4;

Tensor
random_tensor(const Shape &shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (i64 i = 0; i < t.size(); ++i) {
        t[i] = rng.uniform_f(-1.0f, 1.0f);
    }
    return t;
}

// --------------------------------------------------------------------
// Ulp-distance helpers (the tier-2 measuring stick)

TEST(UlpDiff, ZerosAndAdjacentValues)
{
    EXPECT_EQ(ulp_diff(0.0f, 0.0f), 0);
    EXPECT_EQ(ulp_diff(0.0f, -0.0f), 0);
    EXPECT_EQ(ulp_diff(1.0f, 1.0f), 0);
    EXPECT_EQ(ulp_diff(1.0f, std::nextafterf(1.0f, 2.0f)), 1);
    EXPECT_EQ(ulp_diff(-1.0f, std::nextafterf(-1.0f, -2.0f)), 1);
    // One step either side of zero: exactly one ulp from +-0.
    const float tiny = std::nextafterf(0.0f, 1.0f);
    EXPECT_EQ(ulp_diff(0.0f, tiny), 1);
    EXPECT_EQ(ulp_diff(-0.0f, -tiny), 1);
    // The mapping is continuous across zero.
    EXPECT_EQ(ulp_diff(-tiny, tiny), 2);
}

TEST(UlpDiff, NonFiniteValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const i64 huge = std::numeric_limits<i64>::max();
    EXPECT_EQ(ulp_diff(inf, inf), 0);
    EXPECT_EQ(ulp_diff(-inf, -inf), 0);
    EXPECT_EQ(ulp_diff(inf, -inf), huge);
    EXPECT_EQ(ulp_diff(inf, 1.0f), huge);
    EXPECT_EQ(ulp_diff(nan, nan), huge);
    EXPECT_EQ(ulp_diff(nan, 0.0f), huge);
}

TEST(Divergence, ReportsWorstElement)
{
    Tensor a(1, 1, 4);
    Tensor b(1, 1, 4);
    for (i64 i = 0; i < 4; ++i) {
        a[i] = b[i] = 1.0f + static_cast<float>(i);
    }
    b[2] = std::nextafterf(std::nextafterf(b[2], 10.0f), 10.0f);
    const DivergenceReport rep = divergence(a, b);
    EXPECT_EQ(rep.max_ulp, 2);
    EXPECT_EQ(rep.worst_index, 2);
    EXPECT_GT(rep.max_abs, 0.0);
    EXPECT_EQ(max_ulp_diff(a, b), 2);
}

TEST(WithinTolerance, UlpAndAbsoluteEscapes)
{
    Tensor a(1, 1, 2);
    Tensor b(1, 1, 2);
    a[0] = 1.0f;
    b[0] = std::nextafterf(1.0f, 2.0f);
    a[1] = 1e-30f;
    b[1] = -1e-30f; // Many ulps apart, absolutely negligible.
    // Ulp budget covers element 0, absolute escape covers element 1.
    EXPECT_TRUE(within_tolerance(a, b, 1, 1e-6));
    // Without the absolute escape the near-zero sign flip fails.
    EXPECT_FALSE(within_tolerance(a, b, 1, 0.0));
    // One ulp at 1.0 is ~1.2e-7, inside the absolute escape too.
    EXPECT_TRUE(within_tolerance(a, b, 0, 1e-6));
    EXPECT_FALSE(within_tolerance(a, b, 0, 0.0));
    Tensor c(1, 2, 1);
    EXPECT_FALSE(within_tolerance(a, c, 1 << 30, 1e9));
}

// --------------------------------------------------------------------
// Tier 1: bit-exact SIMD kernels

TEST(SimdKernels, ReluMatchesScalarBitForBit)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    // Sizes straddling the vector width, values including -0.0 and
    // denormals: ReLU is max(x, 0), value-safe lane-parallel.
    for (const i64 n : {1, 7, 8, 9, 64, 1000}) {
        std::vector<float> in(n), out(n);
        Rng rng(41);
        for (i64 i = 0; i < n; ++i) {
            in[i] = rng.uniform_f(-2.0f, 2.0f);
        }
        if (n >= 4) {
            in[0] = -0.0f;
            in[1] = 0.0f;
            in[2] = std::nextafterf(0.0f, -1.0f);
            in[3] = -std::numeric_limits<float>::denorm_min();
        }
        relu_simd(in.data(), out.data(), n);
        for (i64 i = 0; i < n; ++i) {
            const float ref = in[i] > 0.0f ? in[i] : 0.0f;
            EXPECT_EQ(out[i], ref) << "n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernels, WarpGathersMatchScalarSelectsBitForBit)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    const i64 plane_n = 37;
    std::vector<float> plane(plane_n);
    Rng rng(43);
    for (float &v : plane) {
        v = rng.uniform_f(-3.0f, 3.0f);
    }
    const i64 n = 61; // Not a lane multiple: exercises the tail.
    // Nearest: offset -1 means out of bounds -> exact +0.0f.
    std::vector<i32> off(n);
    for (i64 p = 0; p < n; ++p) {
        off[p] = p % 5 == 0 ? -1 : static_cast<i32>(p % plane_n);
    }
    std::vector<float> out(n, -99.0f);
    warp_apply_nearest_simd(plane.data(), off.data(), n, out.data());
    for (i64 p = 0; p < n; ++p) {
        const float ref = off[p] >= 0 ? plane[off[p]] : 0.0f;
        EXPECT_EQ(out[p], ref) << "p=" << p;
        if (off[p] < 0) {
            // Exactly +0.0, matching at_padded's padding — a
            // multiply-by-0.0 mask would yield -0.0 for negative
            // activations, which is why the kernel bit-selects.
            EXPECT_FALSE(std::signbit(out[p])) << "p=" << p;
        }
    }
    // Bilinear: per-corner offset + select mask (0 / -1), weights in
    // double, same expression tree as the scalar path.
    std::vector<i32> o00(n), o01(n), o10(n), o11(n);
    std::vector<i32> k00(n), k01(n), k10(n), k11(n);
    std::vector<double> wx0(n), wx1(n), wy0(n), wy1(n);
    Rng wrng(47);
    for (i64 p = 0; p < n; ++p) {
        o00[p] = static_cast<i32>(p % plane_n);
        o01[p] = static_cast<i32>((p + 1) % plane_n);
        o10[p] = static_cast<i32>((p + 7) % plane_n);
        o11[p] = static_cast<i32>((p + 11) % plane_n);
        k00[p] = -1;
        k01[p] = p % 3 == 0 ? 0 : -1; // Some corners out of bounds.
        k10[p] = -1;
        k11[p] = p % 4 == 0 ? 0 : -1;
        const double fx = wrng.uniform(0.0, 1.0);
        const double fy = wrng.uniform(0.0, 1.0);
        wx0[p] = 1.0 - fx;
        wx1[p] = fx;
        wy0[p] = 1.0 - fy;
        wy1[p] = fy;
    }
    std::vector<float> bout(n, -99.0f);
    warp_apply_bilinear_simd(plane.data(), o00.data(), o01.data(),
                             o10.data(), o11.data(), k00.data(),
                             k01.data(), k10.data(), k11.data(),
                             wx0.data(), wx1.data(), wy0.data(),
                             wy1.data(), n, bout.data());
    for (i64 p = 0; p < n; ++p) {
        const double v00 = k00[p] ? plane[o00[p]] : 0.0;
        const double v01 = k01[p] ? plane[o01[p]] : 0.0;
        const double v10 = k10[p] ? plane[o10[p]] : 0.0;
        const double v11 = k11[p] ? plane[o11[p]] : 0.0;
        const double top = v00 * wx0[p] + v01 * wx1[p];
        const double bot = v10 * wx0[p] + v11 * wx1[p];
        const float ref =
            static_cast<float>(top * wy0[p] + bot * wy1[p]);
        EXPECT_EQ(bout[p], ref) << "p=" << p;
    }
}

/** The bit pattern of a double, so -0.0 and +0.0 compare unequal. */
u64
double_bits(double v)
{
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/**
 * The SAD kernels RFBME and block matching run whenever the CPU has
 * SIMD must equal the scalar fixed-stripe contract
 * (flow/sad_kernels.h) bit for bit: over tile widths 1-33 (the
 * across-tile paths at s = 2 and 4, the within-tile path and its
 * tails) and tile counts 1-17, with unaligned rows and tile-row
 * accumulators that already hold a sum, as when RFBME folds rows.
 * Each value gets a random binary exponent: differences of
 * same-magnitude floats sum exactly in double in any order, so only a
 * wide dynamic range shows a reordered reduction.
 */
TEST(SimdKernels, SadKernelsMatchScalarBitForBit)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    Rng rng(53);
    for (i64 s = 1; s <= 33; ++s) {
        for (i64 tiles = 1; tiles <= 17; ++tiles) {
            const i64 n = s * tiles;
            const i64 skew = (s + tiles) % 4; // Unaligned row starts.
            std::vector<float> a(static_cast<size_t>(n + skew));
            std::vector<float> b(static_cast<size_t>(n + skew));
            for (size_t i = 0; i < a.size(); ++i) {
                const int e = static_cast<int>(rng.uniform_int(-30, 30));
                a[i] = std::ldexp(rng.uniform_f(-1.0f, 2.0f), e);
                b[i] = std::ldexp(rng.uniform_f(-1.0f, 2.0f), e);
            }
            const float *ra = a.data() + skew;
            const float *rb = b.data() + skew;
            EXPECT_EQ(double_bits(sad_span_simd(ra, rb, n)),
                      double_bits(sad_span(ra, rb, n)))
                << "span n=" << n;
            std::vector<double> want(static_cast<size_t>(tiles));
            for (double &v : want) {
                v = rng.uniform(0.0, 8.0);
            }
            std::vector<double> got = want;
            sad_tile_row(ra, rb, tiles, s, want.data());
            sad_tile_row_simd(ra, rb, tiles, s, got.data());
            for (i64 t = 0; t < tiles; ++t) {
                EXPECT_EQ(double_bits(got[static_cast<size_t>(t)]),
                          double_bits(want[static_cast<size_t>(t)]))
                    << "s=" << s << " tiles=" << tiles << " t=" << t;
            }
        }
    }
}

/** The bit pattern of a float, so -0.0 and +0.0 compare unequal. */
u32
float_bits(float v)
{
    u32 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/**
 * The FC kernel every plan and Network::forward run whenever the CPU
 * has SIMD must equal the scalar body (the seed's chain) bit for bit,
 * so plan-vs-seed digests cannot catch a wrong kernel: swept over
 * batch sizes 1-11 (one and two sample blocks), input lengths 1-17
 * plus 130, 515 and 2048 (whole transposed blocks and every column
 * tail) and output lengths 1-17 plus 64 (every partial lane block).
 * The SIMD side runs in 11-row ranges, as a thread split would, so
 * ranges also start off the 8-lane grid. Values get random binary
 * exponents, as in the SAD case: a reassociated chain rounds
 * differently only when the products' and partial sums' magnitudes
 * differ.
 */
TEST(SimdKernels, FcKernelMatchesScalarBitForBit)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    constexpr i64 kMaxSamples = 11;
    std::vector<i64> in_dims, out_dims;
    for (i64 d = 1; d <= 17; ++d) {
        in_dims.push_back(d);
        out_dims.push_back(d);
    }
    in_dims.insert(in_dims.end(), {130, 515, 2048});
    out_dims.push_back(64);
    Rng rng(73);
    const auto draw = [&rng](std::vector<float> &v) {
        for (float &x : v) {
            const int e = static_cast<int>(rng.uniform_int(-30, 30));
            x = std::ldexp(rng.uniform_f(-1.0f, 2.0f), e);
        }
    };
    for (const i64 in_dim : in_dims) {
        std::vector<float> x(static_cast<size_t>(kMaxSamples * in_dim));
        draw(x);
        for (const i64 out_dim : out_dims) {
            std::vector<float> w(static_cast<size_t>(out_dim * in_dim));
            std::vector<float> b(static_cast<size_t>(out_dim));
            draw(w);
            draw(b);
            for (i64 n = 1; n <= kMaxSamples; ++n) {
                std::vector<float> want(static_cast<size_t>(n * out_dim));
                std::vector<float> got(want.size(), -1.0f);
                std::vector<const float *> xs;
                std::vector<float *> ys_want, ys_got;
                for (i64 s = 0; s < n; ++s) {
                    xs.push_back(x.data() + s * in_dim);
                    ys_want.push_back(want.data() + s * out_dim);
                    ys_got.push_back(got.data() + s * out_dim);
                }
                fc_rows_scalar(w.data(), b.data(), in_dim, 0, out_dim,
                               xs.data(), n, ys_want.data());
                for (i64 o0 = 0; o0 < out_dim; o0 += 11) {
                    fc_rows_simd(w.data(), b.data(), in_dim, o0,
                                 std::min<i64>(o0 + 11, out_dim),
                                 xs.data(), n, ys_got.data());
                }
                for (size_t i = 0; i < want.size(); ++i) {
                    ASSERT_EQ(float_bits(got[i]), float_bits(want[i]))
                        << "in_dim=" << in_dim << " out_dim=" << out_dim
                        << " n=" << n << " sample "
                        << static_cast<i64>(i) / out_dim << " neuron "
                        << static_cast<i64>(i) % out_dim;
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Tier 2: bounded-divergence SIMD kernels vs the scalar oracle

/** Conv geometries spanning the model zoo's shapes. */
struct GemmCase
{
    i64 in_c, out_c, kernel, stride, pad, size;
};

constexpr GemmCase kGemmCases[] = {
    {3, 8, 3, 1, 1, 16},   // Early layer: few channels.
    {16, 32, 3, 1, 1, 12}, // Mid layer.
    {32, 16, 5, 2, 2, 15}, // Large kernel, strided, odd size.
    {24, 12, 1, 1, 0, 9},  // 1x1: taps == in_c, tiny planes.
    {8, 5, 3, 1, 0, 7},    // out_c and n not tile multiples.
};

TEST(SimdKernels, GemmVariantsWithinToleranceOfScalar)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    for (const GemmCase &c : kGemmCases) {
        const ConvGeometry g{c.in_c, c.out_c, c.kernel, c.stride,
                             c.pad};
        ConvLayer conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
        Rng rng(53);
        for (float &w : conv.weights()) {
            w = rng.uniform_f(-0.5f, 0.5f);
        }
        for (float &b : conv.biases()) {
            b = rng.uniform_f(-0.5f, 0.5f);
        }
        const Tensor in =
            random_tensor(Shape{c.in_c, c.size, c.size}, 59);
        Tensor ref(conv.out_shape(in.shape()));
        Tensor out(conv.out_shape(in.shape()));
        const Tensor *ins[1] = {&in};
        Tensor *ref_outs[1] = {&ref};
        Tensor *outs[1] = {&out};
        Tensor col;
        for (const bool fuse : {false, true}) {
            conv_im2col_gemm(ins, 1, g, conv.weights().data(),
                             conv.biases().data(), ref_outs, col,
                             /*gemm_out=*/nullptr, fuse,
                             GemmVariant::kScalar);
            for (const GemmVariant v : simd_gemm_variants()) {
                conv_im2col_gemm(ins, 1, g, conv.weights().data(),
                                 conv.biases().data(), outs, col,
                                 /*gemm_out=*/nullptr, fuse, v);
                const DivergenceReport rep = divergence(ref, out);
                EXPECT_TRUE(
                    within_tolerance(ref, out, kMaxUlp, kMaxAbs))
                    << gemm_variant_name(v) << " fuse=" << fuse
                    << " in_c=" << c.in_c << ": max_ulp="
                    << rep.max_ulp << " max_abs=" << rep.max_abs;
            }
        }
    }
}

// --------------------------------------------------------------------
// Autotuner

TEST(KernelTuner, ConvPickIsCachedAndDeterministic)
{
    const ConvGeometry g{16, 16, 3, 1, 1};
    const GemmVariant first =
        tune_conv_gemm(g, 14, 14, /*fuse_relu=*/true,
                       /*budget_us=*/2000);
    const i64 contests = KernelTuner::instance().contests();
    const GemmVariant second =
        tune_conv_gemm(g, 14, 14, /*fuse_relu=*/true,
                       /*budget_us=*/2000);
    EXPECT_EQ(first, second);
    // Same shape key -> cache hit, no second contest.
    EXPECT_EQ(KernelTuner::instance().contests(), contests);
    if (!simd_supported()) {
        EXPECT_EQ(first, GemmVariant::kScalar);
    }
}

TEST(KernelTuner, FuseIsPartOfTheTuningKey)
{
    const ConvGeometry g{8, 8, 3, 1, 1};
    tune_conv_gemm(g, 10, 10, /*fuse_relu=*/false, 1000);
    const i64 contests = KernelTuner::instance().contests();
    tune_conv_gemm(g, 10, 10, /*fuse_relu=*/true, 1000);
    if (simd_supported()) {
        // Different epilogue -> different key -> a fresh contest.
        EXPECT_EQ(KernelTuner::instance().contests(), contests + 1);
    }
}

// --------------------------------------------------------------------
// `kernel=tuned` registry spec

TEST(KernelRegistry, TunedSpecSetsPlanOptions)
{
    KernelRegistry &reg = KernelRegistry::instance();
    PlanOptions plan;
    reg.apply("tuned", plan);
    EXPECT_TRUE(plan.tune);
    EXPECT_EQ(plan.tune_budget_us, 20000);
    reg.apply("tuned:budget_us=5000", plan);
    EXPECT_TRUE(plan.tune);
    EXPECT_EQ(plan.tune_budget_us, 5000);
    reg.apply("gemm", plan);
    EXPECT_FALSE(plan.tune);
}

TEST(KernelRegistry, TunedSpecRejectsBadParams)
{
    KernelRegistry &reg = KernelRegistry::instance();
    PlanOptions plan;
    EXPECT_THROW(reg.apply("tuned:bogus=1", plan), ConfigError);
    EXPECT_THROW(reg.apply("tuned:fuse=0", plan), ConfigError);
    EXPECT_THROW(reg.apply("tuned:budget_us=0", plan), ConfigError);
    EXPECT_THROW(reg.apply("tuned:budget_us=-3", plan), ConfigError);
}

// --------------------------------------------------------------------
// Tuned plans: end-to-end tolerance, end-task parity, zero-alloc,
// report rows

TEST(TunedPlan, MatchesGemmPlanWithinToleranceAndAgreesOnArgmax)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);

    const ExecutionPlan gemm(net);
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 2000;
    const ExecutionPlan tuned(net, topts);

    ScratchArena ga, ta;
    for (u64 seed = 0; seed < 3; ++seed) {
        const Tensor in = random_tensor(net.input_shape(), 80 + seed);
        const Tensor &ref = gemm.run(in, ga);
        const Tensor &out = tuned.run(in, ta);
        const DivergenceReport rep = divergence(ref, out);
        EXPECT_TRUE(within_tolerance(ref, out, kMaxUlp, kMaxAbs))
            << "seed " << seed << ": max_ulp=" << rep.max_ulp
            << " max_abs=" << rep.max_abs;
        // End-task parity: the classification decision is identical.
        i64 ref_arg = 0, out_arg = 0;
        for (i64 i = 1; i < ref.size(); ++i) {
            if (ref[i] > ref[ref_arg]) {
                ref_arg = i;
            }
            if (out[i] > out[out_arg]) {
                out_arg = i;
            }
        }
        EXPECT_EQ(ref_arg, out_arg) << "seed " << seed;
    }
}

TEST(TunedPlan, ReportsChosenVariants)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 1000;
    const ExecutionPlan tuned(net, topts);
    bool saw_conv = false, saw_fc = false;
    for (const PlanStepInfo &s : tuned.describe()) {
        if (s.kernel == "im2col_gemm") {
            saw_conv = true;
            if (simd_supported()) {
                EXPECT_FALSE(s.variant.empty());
            } else {
                EXPECT_EQ(s.variant, "scalar");
            }
        }
        if (s.kernel == "fc") {
            saw_fc = true;
            EXPECT_EQ(s.variant, simd_supported() ? "simd" : "scalar")
                << s.layer;
        }
    }
    EXPECT_TRUE(saw_conv);
    EXPECT_TRUE(saw_fc);
    // The untuned plan runs the scalar GEMM reference, and the same
    // bit-exact FC kernel as the tuned plan.
    for (const PlanStepInfo &s : ExecutionPlan(net).describe()) {
        if (s.kernel == "im2col_gemm") {
            EXPECT_EQ(s.variant, "scalar") << s.layer;
        }
        if (s.kernel == "fc") {
            EXPECT_EQ(s.variant, simd_supported() ? "simd" : "scalar")
                << s.layer;
        }
    }
}

TEST(TunedPlan, ReachesAllocationSteadyState)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 1000;
    const ExecutionPlan plan(net, topts);
    const Tensor in = random_tensor(net.input_shape(), 91);
    ScratchArena arena;
    const Tensor warm = plan.run(in, arena);
    const u64 before = Tensor::buffer_allocations();
    for (int i = 0; i < 5; ++i) {
        const Tensor &out = plan.run(in, arena);
        ASSERT_TRUE(out == warm);
    }
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u)
        << "tuned plan.run allocated in steady state";
}

/**
 * A sample's bits never depend on the plan's shape: a tuned plan
 * compiled for four samples gives every sample, at every n, the bits
 * of a tuned one-sample plan. The tuner picks GEMM tiles per layer
 * shape, SIMD GEMM strips never span two samples, and every FC step
 * runs the one bit-exact FC kernel. Swept over the two served
 * suffixes, faster16 at 96 px after its early target (6x6 planes, not
 * a whole number of AVX2 vectors) and alexnet at 128 px with
 * 2048-wide FCs, and over the whole alexnet at 48 px (conv1's 11x11
 * stride-4 window, LRN, every pool and the FCs).
 */
TEST(TunedPlan, BatchedRunBitIdenticalToUnbatchedTuned)
{
    ScaledBuildOptions detect_build;
    detect_build.input = Shape{1, 96, 96};
    const Network detect = build_scaled(faster16_spec(), detect_build);
    ScaledBuildOptions classify_build;
    classify_build.input = Shape{1, 128, 128};
    classify_build.fc_dim = 2048;
    const Network classify = build_scaled(alexnet_spec(), classify_build);
    ScaledBuildOptions small_build;
    small_build.input = Shape{1, 48, 48};
    const Network small = build_scaled(alexnet_spec(), small_build);
    const std::pair<const Network *, i64> ranges[] = {
        {&detect, detect.first_pool_index() + 1},
        {&classify, classify.default_target_index() + 1},
        {&small, 0},
    };
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 1000;
    for (const auto &[net, begin] : ranges) {
        const Shape in_shape =
            ExecutionPlan(*net, 0, begin, net->input_shape()).out_shape();
        const ExecutionPlan single(*net, begin, net->num_layers(),
                                   in_shape, topts);
        const ExecutionPlan batched(single, /*max_batch=*/4);
        std::vector<Tensor> ins;
        for (u64 i = 0; i < 4; ++i) {
            ins.push_back(random_tensor(in_shape, 140 + i));
        }
        std::vector<const Tensor *> in_ptrs;
        for (const Tensor &t : ins) {
            in_ptrs.push_back(&t);
        }
        ScratchArena arena;
        std::vector<Tensor> alone;
        for (const Tensor &in : ins) {
            alone.push_back(single.run(in, arena));
        }
        for (i64 n = 1; n <= 4; ++n) {
            const Tensor *outs[kMaxSuffixBatch] = {};
            batched.run(in_ptrs.data(), n, outs, arena);
            for (i64 i = 0; i < n; ++i) {
                EXPECT_TRUE(*outs[i] == alone[static_cast<size_t>(i)])
                    << net->name() << " from layer " << begin
                    << ": batch " << n << ", sample " << i;
            }
        }
    }
}

TEST(Engine, TunedKernelRunsAndReportsProvenance)
{
    const Network net = build_scaled(alexnet_spec());
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/9, /*num_streams=*/2,
                         /*frames_per_stream=*/3);

    EngineConfig gemm_cfg;
    gemm_cfg.policy = "static:interval=2";
    gemm_cfg.num_threads = 1;
    EngineConfig tuned_cfg = gemm_cfg;
    tuned_cfg.kernel = "tuned:budget_us=1000";

    Engine gemm_engine(net, gemm_cfg);
    const RunReport gemm_report = gemm_engine.run(streams);
    Engine tuned_engine(net, tuned_cfg);
    const RunReport report = tuned_engine.run(streams);

    EXPECT_TRUE(report.simd_isa == "avx2" ||
                report.simd_isa == "sse2" ||
                report.simd_isa == "neon" ||
                report.simd_isa == "scalar")
        << report.simd_isa;
    EXPECT_EQ(report.simd_isa == "scalar", !simd_supported());
    EXPECT_EQ(report.kernel, "tuned:budget_us=1000");

    // End-task parity with the scalar-kernel engine: same frames,
    // same key-frame schedule, same motion-estimation work. (Digests
    // are not compared: tuned kernels are bounded-divergence, not
    // bit-exact.)
    EXPECT_EQ(report.frames, gemm_report.frames);
    EXPECT_EQ(report.key_frames, gemm_report.key_frames);
    EXPECT_EQ(report.me_add_ops, gemm_report.me_add_ops);

    ASSERT_FALSE(report.plan.empty());
    bool saw_variant = false;
    for (const PlanRecord &rec : report.plan) {
        for (const PlanStepInfo &s : rec.steps) {
            if (!s.variant.empty()) {
                saw_variant = true;
            }
        }
    }
    EXPECT_TRUE(saw_variant);

    // The motion front end reports its diff-tile producer like the
    // CNN steps do. It is bit-identical either way, so it is not
    // tuned: SIMD whenever the CPU has it, under every kernel spec.
    bool saw_motion = false;
    for (const PlanRecord &rec : report.plan) {
        if (rec.scope != "motion") {
            continue;
        }
        saw_motion = true;
        ASSERT_EQ(rec.steps.size(), 1u);
        EXPECT_EQ(rec.steps[0].layer, "rfbme");
        EXPECT_EQ(rec.steps[0].kernel.rfind("rfbme_tile/", 0), 0u);
        EXPECT_EQ(rec.steps[0].variant,
                  simd_supported() ? "simd" : "scalar");
    }
    EXPECT_TRUE(saw_motion);

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"simd_isa\""), std::string::npos);
    EXPECT_NE(json.find("\"variant\""), std::string::npos);
}

} // namespace
} // namespace eva2
