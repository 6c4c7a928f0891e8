/**
 * @file
 * Tests for the motion-estimation module: RFBME (functional and naive
 * reference), classic block matching, optical flow baselines, and
 * motion field utilities.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "flow/block_matching.h"
#include "flow/optical_flow.h"
#include "flow/rfbme.h"
#include "runtime/parallel_for.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "video/synthetic_video.h"

namespace eva2 {
namespace {

/** A non-periodic textured test frame. */
Tensor
noise_frame(i64 h, i64 w, u64 seed, double scale = 10.0)
{
    ValueNoise noise(seed, scale);
    Tensor t(1, h, w);
    for (i64 y = 0; y < h; ++y) {
        for (i64 x = 0; x < w; ++x) {
            t.at(0, y, x) = static_cast<float>(
                noise.sample(static_cast<double>(y),
                             static_cast<double>(x)));
        }
    }
    return t;
}

TEST(MotionField, UniformAndMagnitude)
{
    MotionField f = MotionField::uniform(3, 4, Vec2{3.0, 4.0});
    EXPECT_EQ(f.height(), 3);
    EXPECT_EQ(f.width(), 4);
    EXPECT_DOUBLE_EQ(f.at(2, 3).magnitude(), 5.0);
    EXPECT_DOUBLE_EQ(f.total_magnitude(), 12 * 5.0);
    EXPECT_DOUBLE_EQ(f.mean_magnitude(), 5.0);
}

TEST(MotionField, Scaled)
{
    MotionField f = MotionField::uniform(2, 2, Vec2{8.0, -16.0});
    MotionField s = f.scaled(1.0 / 16.0);
    EXPECT_DOUBLE_EQ(s.at(0, 0).dy, 0.5);
    EXPECT_DOUBLE_EQ(s.at(0, 0).dx, -1.0);
}

TEST(MotionField, AverageToGrid)
{
    // An 8x8 dense field with constant vectors reduces to the same
    // constant on any grid.
    MotionField dense = MotionField::uniform(8, 8, Vec2{1.0, 2.0});
    MotionField grid = average_to_grid(dense, 3, 3, 4, 2, 1);
    for (i64 y = 0; y < 3; ++y) {
        for (i64 x = 0; x < 3; ++x) {
            EXPECT_DOUBLE_EQ(grid.at(y, x).dy, 1.0);
            EXPECT_DOUBLE_EQ(grid.at(y, x).dx, 2.0);
        }
    }
}

TEST(Rfbme, RecoversExactTranslation)
{
    Tensor key = noise_frame(64, 64, 5);
    RfbmeConfig cfg{24, 8, 0, 16, 4};
    for (i64 d : {-8, -4, 0, 4, 8}) {
        Tensor cur = translate(key, 0, d);
        RfbmeResult r = rfbme(key, cur, cfg);
        // Interior vectors must all equal the backward offset -d.
        for (i64 y = 1; y + 1 < r.field.height(); ++y) {
            for (i64 x = 1; x + 1 < r.field.width(); ++x) {
                EXPECT_DOUBLE_EQ(r.field.at(y, x).dx,
                                 static_cast<double>(-d))
                    << "d=" << d << " cell " << y << "," << x;
            }
        }
    }
}

TEST(Rfbme, ZeroErrorOnPerfectMatch)
{
    Tensor key = noise_frame(48, 48, 6);
    RfbmeConfig cfg{16, 8, 0, 8, 4};
    RfbmeResult r = rfbme(key, key, cfg);
    EXPECT_NEAR(r.total_error, 0.0, 1e-9);
    for (i64 y = 0; y < r.field.height(); ++y) {
        for (i64 x = 0; x < r.field.width(); ++x) {
            EXPECT_DOUBLE_EQ(r.field.at(y, x).magnitude(), 0.0);
        }
    }
}

TEST(Rfbme, ErrorGrowsWithSceneChange)
{
    Tensor key = noise_frame(48, 48, 7);
    Tensor other = noise_frame(48, 48, 8); // unrelated content
    Tensor shifted = translate(key, 0, 4);
    RfbmeConfig cfg{16, 8, 0, 8, 4};
    const double err_shift = rfbme(key, shifted, cfg).mean_error;
    const double err_other = rfbme(key, other, cfg).mean_error;
    EXPECT_LT(err_shift, err_other);
}

/** Parameterized equivalence sweep: optimized RFBME == naive RFBME. */
struct RfbmeCase
{
    i64 h;
    i64 w;
    RfbmeConfig cfg;
    u64 seed;
};

class RfbmeEquivalence : public ::testing::TestWithParam<RfbmeCase>
{
};

TEST_P(RfbmeEquivalence, MatchesNaiveReference)
{
    const RfbmeCase &tc = GetParam();
    Tensor key = noise_frame(tc.h, tc.w, tc.seed);
    Rng rng(tc.seed * 31 + 1);
    // A composite change: translation + noise.
    Tensor cur = translate(key, 1, -2);
    for (i64 i = 0; i < cur.size(); ++i) {
        cur[i] += rng.uniform_f(-0.01f, 0.01f);
    }
    RfbmeResult fast = rfbme(key, cur, tc.cfg);
    RfbmeResult naive = rfbme_naive(key, cur, tc.cfg);
    ASSERT_EQ(fast.field.height(), naive.field.height());
    ASSERT_EQ(fast.field.width(), naive.field.width());
    for (i64 y = 0; y < fast.field.height(); ++y) {
        for (i64 x = 0; x < fast.field.width(); ++x) {
            const double fe =
                fast.rf_errors[static_cast<size_t>(y * fast.field.width() +
                                                   x)];
            const double ne = naive.rf_errors[static_cast<size_t>(
                y * naive.field.width() + x)];
            EXPECT_NEAR(fe, ne, 1e-9) << y << "," << x;
            // Vectors match unless two offsets tie to within rounding.
            if (fast.field.at(y, x) != naive.field.at(y, x)) {
                EXPECT_NEAR(fe, ne, 1e-9);
            }
        }
    }
    EXPECT_NEAR(fast.total_error, naive.total_error, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RfbmeEquivalence,
    ::testing::Values(
        RfbmeCase{40, 40, {16, 8, 0, 8, 4}, 1},
        RfbmeCase{48, 40, {16, 8, 4, 8, 2}, 2},
        RfbmeCase{64, 64, {24, 8, 8, 16, 4}, 3},
        RfbmeCase{36, 36, {6, 2, 2, 4, 2}, 4},   // Figure 7 geometry
        RfbmeCase{50, 42, {14, 7, 3, 7, 7}, 5},  // non-multiple sizes
        RfbmeCase{64, 32, {32, 16, 16, 16, 8}, 6}));

TEST(Rfbme, OptimizedUsesFarFewerOps)
{
    Tensor key = noise_frame(96, 96, 9);
    Tensor cur = translate(key, 2, 2);
    RfbmeConfig cfg{48, 16, 16, 16, 8};
    RfbmeResult fast = rfbme(key, cur, cfg);
    RfbmeResult naive = rfbme_naive(key, cur, cfg);
    // Tile reuse should save roughly rf_stride^2; require at least 4x.
    EXPECT_LT(fast.add_ops * 4, naive.add_ops);
}

TEST(Rfbme, OutSizeMatchesConvFormula)
{
    RfbmeConfig cfg{6, 2, 2, 4, 2};
    EXPECT_EQ(rfbme_out_size(8, cfg), (8 + 2 * 2 - 6) / 2 + 1);
}

TEST(Rfbme, RejectsBadConfig)
{
    Tensor a = noise_frame(16, 16, 1);
    RfbmeConfig bad{0, 2, 2, 4, 2};
    EXPECT_THROW(rfbme(a, a, bad), ConfigError);
    Tensor b = noise_frame(8, 16, 1);
    RfbmeConfig ok{4, 2, 0, 2, 2};
    EXPECT_THROW(rfbme(a, b, ok), ConfigError);
}

TEST(BlockMatch, RecoversTranslation)
{
    Tensor key = noise_frame(64, 64, 10);
    Tensor cur = translate(key, 3, -5);
    BlockMatchConfig cfg{8, 8, 1};
    MotionField f = exhaustive_block_match(key, cur, cfg);
    // Interior blocks should all point at the backward offset (-3, 5).
    for (i64 y = 2; y + 2 < f.height(); ++y) {
        for (i64 x = 2; x + 2 < f.width(); ++x) {
            EXPECT_DOUBLE_EQ(f.at(y, x).dy, -3.0);
            EXPECT_DOUBLE_EQ(f.at(y, x).dx, 5.0);
        }
    }
}

TEST(BlockMatch, ThreeStepCloseToExhaustive)
{
    Tensor key = noise_frame(64, 64, 11);
    Tensor cur = translate(key, 4, 4);
    BlockMatchConfig cfg{8, 8, 1};
    MotionField ex = exhaustive_block_match(key, cur, cfg);
    MotionField ts = three_step_search(key, cur, cfg);
    double mean_dist = 0.0;
    for (i64 y = 0; y < ex.height(); ++y) {
        for (i64 x = 0; x < ex.width(); ++x) {
            Vec2 d{ex.at(y, x).dy - ts.at(y, x).dy,
                   ex.at(y, x).dx - ts.at(y, x).dx};
            mean_dist += d.magnitude();
        }
    }
    mean_dist /= static_cast<double>(ex.size());
    EXPECT_LT(mean_dist, 2.0);
}

TEST(BlockMatch, MadOfIdenticalBlocksIsZero)
{
    Tensor key = noise_frame(32, 32, 12);
    EXPECT_DOUBLE_EQ(block_mad(key, key, 8, 8, 8, 0, 0), 0.0);
    EXPECT_GT(block_mad(key, key, 8, 8, 8, 3, 3), 0.0);
}

TEST(BlockMatch, DiamondRecoversSmallTranslation)
{
    Tensor key = noise_frame(64, 64, 13);
    Tensor cur = translate(key, 2, -3);
    BlockMatchConfig cfg{8, 8, 1};
    MotionField f = diamond_search(key, cur, cfg);
    for (i64 y = 2; y + 2 < f.height(); ++y) {
        for (i64 x = 2; x + 2 < f.width(); ++x) {
            EXPECT_DOUBLE_EQ(f.at(y, x).dy, -2.0);
            EXPECT_DOUBLE_EQ(f.at(y, x).dx, 3.0);
        }
    }
}

TEST(BlockMatch, DiamondZeroOnIdenticalFrames)
{
    Tensor key = noise_frame(48, 48, 14);
    BlockMatchConfig cfg{8, 12, 1};
    MotionField f = diamond_search(key, key, cfg);
    EXPECT_DOUBLE_EQ(f.total_magnitude(), 0.0);
}

TEST(BlockMatch, DiamondRespectsSearchRadius)
{
    Tensor key = noise_frame(64, 64, 15);
    Tensor cur = translate(key, 0, 20); // beyond the radius
    BlockMatchConfig cfg{8, 6, 1};
    MotionField f = diamond_search(key, cur, cfg);
    for (i64 y = 0; y < f.height(); ++y) {
        for (i64 x = 0; x < f.width(); ++x) {
            EXPECT_LE(std::abs(f.at(y, x).dy), 6.0);
            EXPECT_LE(std::abs(f.at(y, x).dx), 6.0);
        }
    }
}

/** Property: all three fast searches stay within the radius and agree
 * with exhaustive search on clean uniform translations within range. */
class FastSearchSweep
    : public ::testing::TestWithParam<std::pair<i64, i64>>
{
};

TEST_P(FastSearchSweep, NearOptimalMatchError)
{
    // A fast search's contract is the codec criterion: find an
    // offset whose match error is close to the global (exhaustive)
    // minimum — not necessarily the true motion vector, since MAD
    // landscapes on textured content have equivalent minima.
    const auto [dy, dx] = GetParam();
    Tensor key = noise_frame(64, 64, 16);
    Tensor cur = translate(key, dy, dx);
    BlockMatchConfig cfg{8, 8, 1};
    MotionField ex = exhaustive_block_match(key, cur, cfg);
    for (const MotionField &fast :
         {three_step_search(key, cur, cfg),
          diamond_search(key, cur, cfg)}) {
        double excess_sum = 0.0;
        for (i64 y = 0; y < ex.height(); ++y) {
            for (i64 x = 0; x < ex.width(); ++x) {
                const double optimal = block_mad(
                    key, cur, y * cfg.block_size, x * cfg.block_size,
                    cfg.block_size,
                    static_cast<i64>(ex.at(y, x).dy),
                    static_cast<i64>(ex.at(y, x).dx));
                const double got = block_mad(
                    key, cur, y * cfg.block_size, x * cfg.block_size,
                    cfg.block_size,
                    static_cast<i64>(fast.at(y, x).dy),
                    static_cast<i64>(fast.at(y, x).dx));
                EXPECT_GE(got, optimal - 1e-12);
                // Any single block may sit in a poor local minimum
                // (pixel values are in [0,1], so 0.2 is a bad match);
                // the aggregate must stay near optimal.
                EXPECT_LE(got, optimal + 0.2)
                    << "dy=" << dy << " dx=" << dx << " cell " << y
                    << "," << x;
                excess_sum += got - optimal;
            }
        }
        EXPECT_LT(excess_sum / static_cast<double>(ex.size()), 0.02)
            << "dy=" << dy << " dx=" << dx;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Translations, FastSearchSweep,
    ::testing::Values(std::pair<i64, i64>{0, 0},
                      std::pair<i64, i64>{1, 1},
                      std::pair<i64, i64>{-2, 4},
                      std::pair<i64, i64>{4, -4},
                      std::pair<i64, i64>{-5, 0}));

TEST(OpticalFlow, Downsample2Shape)
{
    Tensor t = noise_frame(33, 64, 13);
    Tensor d = downsample2(t);
    EXPECT_EQ(d.height(), 16);
    EXPECT_EQ(d.width(), 32);
}

TEST(OpticalFlow, LucasKanadeRecoversSmallShift)
{
    Tensor key = noise_frame(64, 64, 14, 8.0);
    Tensor cur = translate(key, 0, 2);
    // Backward field: lucas_kanade(new, key) ~ (0, -2) per pixel.
    MotionField f = lucas_kanade(cur, key);
    double mean_dx = 0.0;
    i64 n = 0;
    for (i64 y = 16; y < 48; ++y) {
        for (i64 x = 16; x < 48; ++x) {
            mean_dx += f.at(y, x).dx;
            ++n;
        }
    }
    mean_dx /= static_cast<double>(n);
    EXPECT_NEAR(mean_dx, -2.0, 0.8);
}

TEST(OpticalFlow, HornSchunckRecoversSmallShift)
{
    Tensor key = noise_frame(64, 64, 15, 8.0);
    Tensor cur = translate(key, 1, 0);
    MotionField f = horn_schunck(cur, key);
    double mean_dy = 0.0;
    i64 n = 0;
    for (i64 y = 16; y < 48; ++y) {
        for (i64 x = 16; x < 48; ++x) {
            mean_dy += f.at(y, x).dy;
            ++n;
        }
    }
    mean_dy /= static_cast<double>(n);
    EXPECT_NEAR(mean_dy, -1.0, 0.5);
}

TEST(OpticalFlow, ZeroFlowOnIdenticalFrames)
{
    Tensor key = noise_frame(48, 48, 16);
    MotionField lk = lucas_kanade(key, key);
    MotionField hs = horn_schunck(key, key);
    EXPECT_LT(lk.mean_magnitude(), 0.05);
    EXPECT_LT(hs.mean_magnitude(), 0.05);
}

// --------------------------------------------------------------------
// Allocation-free *_into forms: bit-identical to the allocating
// wrappers, and steady-state reuse neither allocates tensor buffers
// nor regrows the caller-owned workspaces (pinned by buffer-address
// stability across repeated calls).

bool
fields_equal(const MotionField &a, const MotionField &b)
{
    if (a.height() != b.height() || a.width() != b.width()) {
        return false;
    }
    for (i64 y = 0; y < a.height(); ++y) {
        for (i64 x = 0; x < a.width(); ++x) {
            if (a.at(y, x) != b.at(y, x)) {
                return false;
            }
        }
    }
    return true;
}

TEST(RfbmeInto, MatchesAllocatingFormAndReusesWorkspace)
{
    const Tensor key = noise_frame(64, 64, 31);
    const Tensor cur = translate(key, 3.0, -2.0);
    RfbmeConfig config;
    config.search_radius = 8;

    const RfbmeResult expect = rfbme(key, cur, config);

    RfbmeResult result;
    RfbmeWorkspace ws;
    rfbme_into(key, cur, config, result, ws);
    EXPECT_TRUE(fields_equal(result.field, expect.field));
    EXPECT_EQ(result.rf_errors, expect.rf_errors);
    EXPECT_EQ(result.add_ops, expect.add_ops);
    EXPECT_DOUBLE_EQ(result.mean_error, expect.mean_error);

    // Steady state: the second run reuses every buffer in place.
    const Vec2 *field_buf = &result.field.at(0, 0);
    const double *errors_buf = result.rf_errors.data();
    const Vec2 *offsets_buf = ws.offsets.data();
    const double *chunk_buf = ws.chunks.empty()
                                  ? nullptr
                                  : ws.chunks.front().best.data();
    const u64 before = Tensor::buffer_allocations();
    rfbme_into(key, cur, config, result, ws);
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u);
    EXPECT_EQ(&result.field.at(0, 0), field_buf);
    EXPECT_EQ(result.rf_errors.data(), errors_buf);
    EXPECT_EQ(ws.offsets.data(), offsets_buf);
    if (chunk_buf != nullptr) {
        EXPECT_EQ(ws.chunks.front().best.data(), chunk_buf);
    }
    EXPECT_TRUE(fields_equal(result.field, expect.field));
}

TEST(RfbmeInto, WorkspaceSurvivesAConfigChange)
{
    const Tensor key = noise_frame(48, 48, 33);
    const Tensor cur = translate(key, -2.0, 1.0);
    RfbmeConfig small;
    small.search_radius = 4;
    RfbmeConfig big;
    big.search_radius = 10;

    RfbmeResult result;
    RfbmeWorkspace ws;
    rfbme_into(key, cur, small, result, ws);
    rfbme_into(key, cur, big, result, ws);
    const RfbmeResult expect = rfbme(key, cur, big);
    EXPECT_TRUE(fields_equal(result.field, expect.field));
    EXPECT_EQ(result.add_ops, expect.add_ops);
}

// --------------------------------------------------------------------
// RFBME variant parity: the scalar and SIMD diff-tile producers must
// be bit-identical on every input (the fixed-stripe SAD contract of
// flow/sad_kernels.h), and both must stay within tolerance of the
// naive reference. On machines or builds without SIMD support the
// kSimd variant falls back to the scalar kernels, so this suite is
// meaningful in the EVA2_SIMD=OFF and sanitizer CI legs too.

/**
 * A frame of finite values with random binary exponents. Pixel-range
 * frames cannot show a reordered SAD reduction: differences of
 * same-magnitude floats sum exactly in double in any order. The
 * exponents are drawn as SimdKernels.SadKernelsMatchScalarBitForBit
 * draws them.
 */
Tensor
wide_range_frame(i64 h, i64 w, u64 seed)
{
    Rng rng(seed);
    Tensor t(1, h, w);
    for (i64 i = 0; i < t.size(); ++i) {
        const int e = static_cast<int>(rng.uniform_int(-30, 30));
        t[i] = std::ldexp(rng.uniform_f(-1.0f, 2.0f), e);
    }
    return t;
}

void
expect_bit_identical(const RfbmeResult &a, const RfbmeResult &b)
{
    ASSERT_TRUE(fields_equal(a.field, b.field));
    ASSERT_EQ(a.rf_errors.size(), b.rf_errors.size());
    for (size_t i = 0; i < a.rf_errors.size(); ++i) {
        EXPECT_EQ(a.rf_errors[i], b.rf_errors[i]) << "cell " << i;
    }
    EXPECT_EQ(a.total_error, b.total_error);
    EXPECT_EQ(a.mean_error, b.mean_error);
    EXPECT_EQ(a.add_ops, b.add_ops);
}

TEST(RfbmeParity, ScalarAndSimdBitIdenticalAcrossBorderClipping)
{
    // Odd shapes, pads, and strides, with search radii at or past the
    // image extent so candidate offsets clip at every border. Tile
    // widths cover each SIMD code path: s=2 and s=4 vectorize across
    // tiles, s=8 is one full vector, s=13 exercises the vector +
    // stripe-remainder path, s=3 the scalar-contract tail, and s=5 and
    // s=6 fill five and six stripes, the shortest spans whose stripe
    // reduction order changes a sum. Each case runs pixel-range frames
    // and wide-range frames (the same motion, values with random
    // binary exponents); only the wide-range pair can tell a reordered
    // SAD sum from the contract's order.
    const RfbmeCase cases[] = {
        {19, 23, {5, 3, 1, 30, 7}, 61},
        {18, 14, {6, 2, 2, 16, 3}, 62},
        {33, 27, {9, 3, 4, 12, 5}, 63},
        {40, 36, {12, 4, 2, 40, 9}, 64},
        {26, 22, {13, 13, 6, 30, 11}, 65},
        {24, 24, {16, 8, 0, 25, 25}, 66},
        {40, 45, {15, 5, 5, 6, 3}, 67},
        {36, 42, {18, 6, 6, 6, 2}, 68},
    };
    for (const RfbmeCase &tc : cases) {
        const Tensor key = noise_frame(tc.h, tc.w, tc.seed);
        Rng rng(tc.seed * 31 + 7);
        Tensor cur = translate(key, -1, 2);
        for (i64 i = 0; i < cur.size(); ++i) {
            cur[i] += rng.uniform_f(-0.02f, 0.02f);
        }
        RfbmeConfig scalar_cfg = tc.cfg;
        scalar_cfg.variant = RfbmeVariant::kScalar;
        RfbmeConfig simd_cfg = tc.cfg;
        simd_cfg.variant = RfbmeVariant::kSimd;

        const RfbmeResult rs = rfbme(key, cur, scalar_cfg);
        const RfbmeResult rv = rfbme(key, cur, simd_cfg);
        expect_bit_identical(rs, rv);

        // Both variants stay the optimized algorithm: tolerance vs
        // the naive per-field reference (which sums in a different
        // order by construction), same output geometry.
        const RfbmeResult naive = rfbme_naive(key, cur, tc.cfg);
        ASSERT_EQ(rs.field.height(), naive.field.height());
        ASSERT_EQ(rs.field.width(), naive.field.width());
        for (size_t i = 0; i < rs.rf_errors.size(); ++i) {
            EXPECT_NEAR(rs.rf_errors[i], naive.rf_errors[i], 1e-9)
                << tc.h << "x" << tc.w << " cell " << i;
        }

        // Wide-range frames, scalar vs SIMD bit for bit. The naive
        // reference's different summation order stays out: its
        // tolerance would have to span the values' exponent range.
        const Tensor wide_key =
            wide_range_frame(tc.h, tc.w, tc.seed + 100);
        Tensor wide_cur = translate(wide_key, -1, 2);
        for (i64 i = 0; i < wide_cur.size(); ++i) {
            wide_cur[i] *= 1.0f + rng.uniform_f(-0.02f, 0.02f);
        }
        SCOPED_TRACE("wide-range frames");
        expect_bit_identical(rfbme(wide_key, wide_cur, scalar_cfg),
                             rfbme(wide_key, wide_cur, simd_cfg));
    }
}

TEST(RfbmeParity, OutputAndAddOpsInvariantAcrossThreadCounts)
{
    const Tensor key = noise_frame(50, 42, 71);
    Tensor cur = translate(key, 2, -3);
    RfbmeConfig cfg{14, 7, 3, 10, 5};
    cfg.variant = RfbmeVariant::kSimd;

    RfbmeResult parallel_result;
    RfbmeWorkspace ws_parallel;
    rfbme_into(key, cur, cfg, parallel_result, ws_parallel);

    // Nested parallel_for calls run serially inline, so running the
    // whole estimator inside an outer parallel region forces a
    // one-thread schedule of the offset chunks. The ascending-offset
    // chunk merge makes the two schedules bit-identical, add_ops
    // included.
    RfbmeResult serial_result;
    RfbmeWorkspace ws_serial;
    parallel_for(0, 1, [&](i64) {
        rfbme_into(key, cur, cfg, serial_result, ws_serial);
    });

    expect_bit_identical(parallel_result, serial_result);
}

TEST(BlockMatch, ThreeStepRejectsBadConfig)
{
    // Regression: three_step_search_into used to skip the config
    // validation the other searches have — block_size=0 divided by
    // zero and search_stride<=0 went unchecked.
    const Tensor a = noise_frame(16, 16, 91);
    MotionField out;
    const BlockMatchConfig zero_block{0, 4, 1};
    EXPECT_THROW(three_step_search_into(a, a, zero_block, out),
                 ConfigError);
    const BlockMatchConfig zero_stride{8, 4, 0};
    EXPECT_THROW(three_step_search_into(a, a, zero_stride, out),
                 ConfigError);
    const BlockMatchConfig neg_radius{8, -1, 1};
    EXPECT_THROW(three_step_search_into(a, a, neg_radius, out),
                 ConfigError);
}

TEST(BlockMatch, ExhaustiveParallelMatchesSerialSchedule)
{
    const Tensor key = noise_frame(40, 40, 93);
    const Tensor cur = translate(key, 1, -2);
    const BlockMatchConfig cfg{8, 6, 2};
    MotionField par;
    exhaustive_block_match_into(key, cur, cfg, par);
    // Same nested-parallel_for trick as above: a forced one-thread
    // schedule must match the parallel one bit for bit.
    MotionField ser;
    parallel_for(0, 1, [&](i64) {
        exhaustive_block_match_into(key, cur, cfg, ser);
    });
    EXPECT_TRUE(fields_equal(par, ser));
}

TEST(BlockMatchingInto, MatchesAllocatingFormsWithoutAllocating)
{
    const Tensor key = noise_frame(48, 48, 35);
    const Tensor cur = translate(key, 2.0, 3.0);
    BlockMatchConfig config;
    config.search_radius = 6;

    MotionField out;
    exhaustive_block_match_into(key, cur, config, out);
    EXPECT_TRUE(
        fields_equal(out, exhaustive_block_match(key, cur, config)));
    three_step_search_into(key, cur, config, out);
    EXPECT_TRUE(
        fields_equal(out, three_step_search(key, cur, config)));
    diamond_search_into(key, cur, config, out);
    EXPECT_TRUE(fields_equal(out, diamond_search(key, cur, config)));

    // Steady state: repeated searches into the same field reuse its
    // grid in place and touch no tensor buffers.
    const Vec2 *buf = &out.at(0, 0);
    const u64 before = Tensor::buffer_allocations();
    exhaustive_block_match_into(key, cur, config, out);
    three_step_search_into(key, cur, config, out);
    diamond_search_into(key, cur, config, out);
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u);
    EXPECT_EQ(&out.at(0, 0), buf);
}

TEST(MotionFieldInto, ResizeGridZeroFillsAndAverageIntoMatches)
{
    MotionField f = MotionField::uniform(4, 4, Vec2{1.0, 2.0});
    f.resize_grid(2, 3);
    EXPECT_EQ(f.height(), 2);
    EXPECT_EQ(f.width(), 3);
    for (i64 y = 0; y < 2; ++y) {
        for (i64 x = 0; x < 3; ++x) {
            EXPECT_EQ(f.at(y, x), (Vec2{0.0, 0.0}));
        }
    }

    const MotionField dense =
        MotionField::uniform(16, 16, Vec2{2.0, -1.0});
    MotionField out;
    average_to_grid_into(dense, 7, 7, 4, 2, 1, out);
    EXPECT_TRUE(
        fields_equal(out, average_to_grid(dense, 7, 7, 4, 2, 1)));
}

} // namespace
} // namespace eva2
