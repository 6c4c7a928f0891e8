/**
 * @file
 * Portable explicit-SIMD vector wrapper: one `Vec<float>` type over
 * AVX2, SSE2, and NEON, with a scalar fallback that keeps every call
 * site compilable (and correct) on any target.
 *
 * ISA selection is a *compile-time* property of the including
 * translation unit: the widest instruction set the TU is compiled for
 * wins (AVX2 > SSE2 > NEON > scalar), and `EVA2_SIMD_ENABLED=0`
 * forces the scalar fallback regardless of target flags. The build
 * compiles exactly one designated TU (src/simd/simd_kernels.cc) with
 * elevated ISA flags (`-mavx2 -mfma` on x86_64 under the EVA2_SIMD
 * CMake option), so this header must only be included from TUs that
 * are either ISA-flagged or content with the baseline ISA — including
 * it from two TUs compiled for different ISAs is an ODR violation.
 * Everything else reaches the SIMD kernels through the plain-function
 * interface in simd_kernels.h, which is safe to include anywhere.
 *
 * Numerics contract (what the two-tier verification story leans on):
 *
 *  - add/mul/max are lane-wise IEEE single ops: vectorizing a loop
 *    across independent outputs with them is *value-safe* (each
 *    lane's operation sequence equals the scalar loop's).
 *  - fma() fuses the multiply-add (no intermediate rounding) where
 *    the ISA has it — faster and *more* accurate than mul+add, but
 *    not bit-identical to it. Kernels that must stay bit-exact with
 *    the scalar reference use mul+add; kernels gated by the
 *    bounded-divergence check use fma.
 *
 * The whole library is compiled with -ffp-contract=off so the
 * compiler cannot *implicitly* fuse what the kernels — and the scalar
 * references they must match — spell out as mul+add; every fma in a
 * kernel is an explicit fma() call.
 */
#ifndef EVA2_SIMD_VEC_H
#define EVA2_SIMD_VEC_H

#include "util/common.h"

#ifndef EVA2_SIMD_ENABLED
#define EVA2_SIMD_ENABLED 1
#endif

#if EVA2_SIMD_ENABLED && defined(__AVX2__) && defined(__FMA__)
#define EVA2_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif EVA2_SIMD_ENABLED && defined(__SSE2__)
#define EVA2_SIMD_ISA_SSE2 1
#include <emmintrin.h>
#elif EVA2_SIMD_ENABLED && defined(__ARM_NEON)
#define EVA2_SIMD_ISA_NEON 1
#include <arm_neon.h>
#else
#define EVA2_SIMD_ISA_SCALAR 1
#endif

namespace eva2 {
namespace simd {

template <typename T> struct Vec;

#if defined(EVA2_SIMD_ISA_AVX2)

/** The ISA this TU's Vec maps to, for reports. */
constexpr const char *kIsaName = "avx2";

template <> struct Vec<float>
{
    static constexpr i64 kLanes = 8;
    __m256 v;

    static Vec zero() { return {_mm256_setzero_ps()}; }
    static Vec broadcast(float x) { return {_mm256_set1_ps(x)}; }
    static Vec load(const float *p) { return {_mm256_loadu_ps(p)}; }
    void store(float *p) const { _mm256_storeu_ps(p, v); }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {_mm256_add_ps(a.v, b.v)};
    }
    friend Vec
    operator*(Vec a, Vec b)
    {
        return {_mm256_mul_ps(a.v, b.v)};
    }
    friend Vec
    max(Vec a, Vec b)
    {
        return {_mm256_max_ps(a.v, b.v)};
    }
    /** this = a * b + this, fused (single rounding). */
    Vec
    fma(Vec a, Vec b) const
    {
        return {_mm256_fmadd_ps(a.v, b.v, v)};
    }
};

#elif defined(EVA2_SIMD_ISA_SSE2)

constexpr const char *kIsaName = "sse2";

template <> struct Vec<float>
{
    static constexpr i64 kLanes = 4;
    __m128 v;

    static Vec zero() { return {_mm_setzero_ps()}; }
    static Vec broadcast(float x) { return {_mm_set1_ps(x)}; }
    static Vec load(const float *p) { return {_mm_loadu_ps(p)}; }
    void store(float *p) const { _mm_storeu_ps(p, v); }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {_mm_add_ps(a.v, b.v)};
    }
    friend Vec
    operator*(Vec a, Vec b)
    {
        return {_mm_mul_ps(a.v, b.v)};
    }
    friend Vec
    max(Vec a, Vec b)
    {
        return {_mm_max_ps(a.v, b.v)};
    }
    /** SSE2 has no fused op: mul+add (two roundings). */
    Vec
    fma(Vec a, Vec b) const
    {
        return {_mm_add_ps(v, _mm_mul_ps(a.v, b.v))};
    }
};

#elif defined(EVA2_SIMD_ISA_NEON)

constexpr const char *kIsaName = "neon";

template <> struct Vec<float>
{
    static constexpr i64 kLanes = 4;
    float32x4_t v;

    static Vec zero() { return {vdupq_n_f32(0.0f)}; }
    static Vec broadcast(float x) { return {vdupq_n_f32(x)}; }
    static Vec load(const float *p) { return {vld1q_f32(p)}; }
    void store(float *p) const { vst1q_f32(p, v); }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {vaddq_f32(a.v, b.v)};
    }
    friend Vec
    operator*(Vec a, Vec b)
    {
        return {vmulq_f32(a.v, b.v)};
    }
    friend Vec
    max(Vec a, Vec b)
    {
        return {vmaxq_f32(a.v, b.v)};
    }
    Vec
    fma(Vec a, Vec b) const
    {
#if defined(__aarch64__)
        return {vfmaq_f32(v, a.v, b.v)}; // Fused on AArch64.
#else
        return {vmlaq_f32(v, a.v, b.v)};
#endif
    }
};

#else // EVA2_SIMD_ISA_SCALAR

constexpr const char *kIsaName = "scalar";

/**
 * Single-lane fallback: every wrapper call site compiles and runs
 * (correctly, just not faster) on targets with no vector unit and in
 * EVA2_SIMD=OFF builds.
 */
template <> struct Vec<float>
{
    static constexpr i64 kLanes = 1;
    float v;

    static Vec zero() { return {0.0f}; }
    static Vec broadcast(float x) { return {x}; }
    static Vec load(const float *p) { return {*p}; }
    void store(float *p) const { *p = v; }

    friend Vec operator+(Vec a, Vec b) { return {a.v + b.v}; }
    friend Vec operator*(Vec a, Vec b) { return {a.v * b.v}; }
    friend Vec
    max(Vec a, Vec b)
    {
        return {a.v > b.v ? a.v : b.v};
    }
    Vec fma(Vec a, Vec b) const { return {v + a.v * b.v}; }
};

#endif

using VecF = Vec<float>;

/** True when this TU's Vec<float> is a real vector type. */
constexpr bool
compiled_simd()
{
    return VecF::kLanes > 1;
}

} // namespace simd
} // namespace eva2

#endif // EVA2_SIMD_VEC_H
