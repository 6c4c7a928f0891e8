#include "cnn/kernel_tuner.h"

#include <algorithm>
#include <chrono>

#include "util/rng.h"

namespace eva2 {

namespace {

using Clock = std::chrono::steady_clock;

double
us_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/**
 * Defeats dead-code elimination of the tuning workloads: the
 * candidates write into scratch buffers nothing reads, so each run
 * folds one element into this volatile sink.
 */
volatile float g_tune_sink = 0.0f;

void
consume(float v)
{
    g_tune_sink = g_tune_sink + v;
}

/** Deterministic synthetic fill for tuning workloads. */
void
fill_uniform(std::vector<float> &v, u64 seed)
{
    Rng rng(seed);
    for (float &x : v) {
        x = rng.uniform_f(-1.0f, 1.0f);
    }
}

} // namespace

KernelTuner &
KernelTuner::instance()
{
    static KernelTuner tuner;
    return tuner;
}

TunePick
KernelTuner::pick(const std::string &key,
                  const std::vector<TuneCandidate> &candidates,
                  i64 budget_us)
{
    require(!candidates.empty(), "kernel tuner: no candidates for '" +
                                     key + "'");
    {
        MutexLock lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            return it->second;
        }
    }
    // Tune outside the lock: contests can take milliseconds, and two
    // plans compiling different shapes should not serialize. A race
    // on the *same* shape tunes twice; the first insert wins below.
    const double budget = static_cast<double>(std::max<i64>(
        budget_us, 1));
    std::vector<double> best(candidates.size(), 0.0);
    for (size_t c = 0; c < candidates.size(); ++c) {
        candidates[c].run(); // Warm caches and code paths, untimed.
    }
    const Clock::time_point start = Clock::now();
    constexpr int kMaxRounds = 5;
    for (int round = 0; round < kMaxRounds; ++round) {
        for (size_t c = 0; c < candidates.size(); ++c) {
            const Clock::time_point t0 = Clock::now();
            candidates[c].run();
            const double dt = us_since(t0);
            if (round == 0 || dt < best[c]) {
                best[c] = dt;
            }
        }
        // Every candidate got at least one timed run by now; stop
        // once the budget is spent.
        if (us_since(start) >= budget) {
            break;
        }
    }
    size_t winner = 0;
    for (size_t c = 1; c < candidates.size(); ++c) {
        if (best[c] < best[winner]) {
            winner = c;
        }
    }
    TunePick pick;
    pick.id = candidates[winner].id;
    pick.name = candidates[winner].name;
    pick.best_us = best[winner];
    MutexLock lock(mutex_);
    const auto inserted = cache_.emplace(key, pick);
    if (inserted.second) {
        ++contests_;
    }
    // Losers of an insert race adopt the resident pick, so every
    // caller in the process agrees on one variant per shape.
    return inserted.first->second;
}

i64
KernelTuner::cache_size() const
{
    MutexLock lock(mutex_);
    return static_cast<i64>(cache_.size());
}

i64
KernelTuner::contests() const
{
    MutexLock lock(mutex_);
    return contests_;
}

void
KernelTuner::clear()
{
    MutexLock lock(mutex_);
    cache_.clear();
    contests_ = 0;
}

GemmVariant
tune_conv_gemm(const ConvGeometry &g, i64 out_h, i64 out_w,
               bool fuse_relu, i64 budget_us)
{
    if (!simd_supported()) {
        return GemmVariant::kScalar;
    }
    const i64 taps = im2col_rows(g);
    const i64 n = out_h * out_w;
    // Cap the tuning workload's columns so one contest costs a few
    // megaflops per candidate regardless of layer size; the register
    // tiles' relative ranking is column-count-invariant past a few
    // tiles.
    const i64 flops_per_col = std::max<i64>(g.out_c * taps, 1);
    const i64 n_cap = std::max<i64>(64, 4000000 / flops_per_col);
    const i64 n_tune = std::min(n, n_cap);

    const std::string key =
        "conv_gemm:ic=" + std::to_string(g.in_c) +
        ",oc=" + std::to_string(g.out_c) +
        ",k=" + std::to_string(g.kernel) +
        ",s=" + std::to_string(g.stride) +
        ",p=" + std::to_string(g.pad) + ",oh=" + std::to_string(out_h) +
        ",ow=" + std::to_string(out_w) +
        ",fuse=" + std::to_string(fuse_relu ? 1 : 0);

    std::vector<float> weights(
        static_cast<size_t>(g.out_c * taps));
    std::vector<float> biases(static_cast<size_t>(g.out_c));
    std::vector<float> col(static_cast<size_t>(taps * n_tune));
    std::vector<float> out(static_cast<size_t>(g.out_c * n_tune));
    fill_uniform(weights, 17);
    fill_uniform(biases, 19);
    fill_uniform(col, 23);

    std::vector<TuneCandidate> candidates;
    TuneCandidate scalar;
    scalar.name = gemm_variant_name(GemmVariant::kScalar);
    scalar.id = static_cast<i64>(GemmVariant::kScalar);
    scalar.run = [&weights, &biases, &col, &out, g, taps, n_tune,
                  fuse_relu]() {
        gemm_strip_scalar(weights.data(), biases.data(), col.data(),
                          g.out_c, taps, n_tune, 0, n_tune, out.data(),
                          fuse_relu);
        consume(out[0]);
    };
    candidates.push_back(std::move(scalar));
    for (const GemmVariant v : simd_gemm_variants()) {
        TuneCandidate cand;
        cand.name = gemm_variant_name(v);
        cand.id = static_cast<i64>(v);
        cand.run = [&weights, &biases, &col, &out, g, taps, n_tune,
                    fuse_relu, v]() {
            gemm_strip_simd(v, weights.data(), biases.data(),
                            col.data(), g.out_c, taps, n_tune, 0,
                            n_tune, out.data(), fuse_relu);
            consume(out[0]);
        };
        candidates.push_back(std::move(cand));
    }
    const TunePick pick =
        KernelTuner::instance().pick(key, candidates, budget_us);
    return static_cast<GemmVariant>(pick.id);
}

} // namespace eva2
