#include "tensor/tensor_ops.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/digest.h"

namespace eva2 {

Tensor
translate(const Tensor &t, i64 dy, i64 dx)
{
    Tensor out(t.shape());
    for (i64 c = 0; c < t.channels(); ++c) {
        for (i64 y = 0; y < t.height(); ++y) {
            i64 sy = y - dy;
            if (sy < 0 || sy >= t.height()) {
                continue;
            }
            for (i64 x = 0; x < t.width(); ++x) {
                i64 sx = x - dx;
                if (sx < 0 || sx >= t.width()) {
                    continue;
                }
                out.at(c, y, x) = t.at(c, sy, sx);
            }
        }
    }
    return out;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(),
            "add: shape mismatch " + a.shape().str() + " vs " +
                b.shape().str());
    Tensor out(a.shape());
    for (i64 i = 0; i < a.size(); ++i) {
        out[i] = a[i] + b[i];
    }
    return out;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(),
            "sub: shape mismatch " + a.shape().str() + " vs " +
                b.shape().str());
    Tensor out(a.shape());
    for (i64 i = 0; i < a.size(); ++i) {
        out[i] = a[i] - b[i];
    }
    return out;
}

Tensor
scale(const Tensor &t, float s)
{
    Tensor out(t.shape());
    for (i64 i = 0; i < t.size(); ++i) {
        out[i] = t[i] * s;
    }
    return out;
}

Tensor
relu(const Tensor &t)
{
    Tensor out(t.shape());
    for (i64 i = 0; i < t.size(); ++i) {
        out[i] = t[i] > 0.0f ? t[i] : 0.0f;
    }
    return out;
}

double
max_abs_diff(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(), "max_abs_diff: shape mismatch");
    double m = 0.0;
    for (i64 i = 0; i < a.size(); ++i) {
        m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
    }
    return m;
}

double
mean_abs_diff(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(), "mean_abs_diff: shape mismatch");
    if (a.empty()) {
        return 0.0;
    }
    double acc = 0.0;
    for (i64 i = 0; i < a.size(); ++i) {
        acc += std::fabs(static_cast<double>(a[i]) - b[i]);
    }
    return acc / static_cast<double>(a.size());
}

double
sum(const Tensor &t)
{
    double acc = 0.0;
    for (i64 i = 0; i < t.size(); ++i) {
        acc += t[i];
    }
    return acc;
}

double
sum_squares(const float *x, i64 n)
{
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    i64 i = 0;
    for (; i + 8 <= n; i += 8) {
        for (i64 l = 0; l < 8; ++l) {
            const double v = static_cast<double>(x[i + l]);
            acc[l] += v * v;
        }
    }
    for (; i < n; ++i) {
        const double v = static_cast<double>(x[i]);
        acc[i % 8] += v * v;
    }
    const double s01 = acc[0] + acc[1];
    const double s23 = acc[2] + acc[3];
    const double s45 = acc[4] + acc[5];
    const double s67 = acc[6] + acc[7];
    return (s01 + s23) + (s45 + s67);
}

double
sum_squares(const Tensor &t)
{
    return sum_squares(t.data().data(), t.size());
}

double
zero_fraction(const Tensor &t, float threshold)
{
    if (t.empty()) {
        return 0.0;
    }
    i64 zeros = 0;
    for (i64 i = 0; i < t.size(); ++i) {
        if (std::fabs(t[i]) <= threshold) {
            ++zeros;
        }
    }
    return static_cast<double>(zeros) / static_cast<double>(t.size());
}

bool
all_close(const Tensor &a, const Tensor &b, double tol)
{
    if (a.shape() != b.shape()) {
        return false;
    }
    return max_abs_diff(a, b) <= tol;
}

namespace {

/**
 * Map a float's bit pattern to a monotonically ordered integer:
 * negative floats mirror below zero so that consecutive representable
 * values are consecutive integers across the whole range (the
 * standard trick behind ulp distance).
 */
i64
ordered_bits(float x)
{
    i32 bits;
    static_assert(sizeof(bits) == sizeof(x), "float is not 32-bit");
    std::memcpy(&bits, &x, sizeof(bits));
    const i64 b = static_cast<i64>(bits);
    if (b >= 0) {
        return b;
    }
    // Negative floats: signed bits run from INT32_MIN (-0.0) down the
    // magnitude scale, so subtracting from INT32_MIN mirrors them
    // below zero with -0.0 landing exactly on 0 (= +0.0).
    return static_cast<i64>(std::numeric_limits<i32>::min()) - b;
}

} // namespace

i64
ulp_diff(float a, float b)
{
    if (std::isnan(a) || std::isnan(b)) {
        return std::numeric_limits<i64>::max();
    }
    if (std::isinf(a) || std::isinf(b)) {
        return a == b ? 0 : std::numeric_limits<i64>::max();
    }
    const i64 d = ordered_bits(a) - ordered_bits(b);
    return d >= 0 ? d : -d;
}

i64
max_ulp_diff(const Tensor &a, const Tensor &b)
{
    return divergence(a, b).max_ulp;
}

DivergenceReport
divergence(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(), "divergence: shape mismatch " +
                                        a.shape().str() + " vs " +
                                        b.shape().str());
    DivergenceReport rep;
    for (i64 i = 0; i < a.size(); ++i) {
        const i64 u = ulp_diff(a[i], b[i]);
        if (u > rep.max_ulp) {
            rep.max_ulp = u;
            rep.worst_index = i;
        }
        rep.max_abs =
            std::max(rep.max_abs,
                     std::fabs(static_cast<double>(a[i]) - b[i]));
    }
    return rep;
}

bool
within_tolerance(const Tensor &a, const Tensor &b, i64 max_ulp,
                 double max_abs)
{
    if (a.shape() != b.shape()) {
        return false;
    }
    for (i64 i = 0; i < a.size(); ++i) {
        if (ulp_diff(a[i], b[i]) > max_ulp &&
            !(std::fabs(static_cast<double>(a[i]) - b[i]) <= max_abs)) {
            return false;
        }
    }
    return true;
}

float
bilinear_sample(const Tensor &t, i64 c, double y, double x)
{
    i64 y0 = static_cast<i64>(std::floor(y));
    i64 x0 = static_cast<i64>(std::floor(x));
    double fy = y - static_cast<double>(y0);
    double fx = x - static_cast<double>(x0);

    double v00 = t.at_padded(c, y0, x0);
    double v01 = t.at_padded(c, y0, x0 + 1);
    double v10 = t.at_padded(c, y0 + 1, x0);
    double v11 = t.at_padded(c, y0 + 1, x0 + 1);

    double top = v00 * (1.0 - fx) + v01 * fx;
    double bot = v10 * (1.0 - fx) + v11 * fx;
    return static_cast<float>(top * (1.0 - fy) + bot * fy);
}

u64
tensor_digest(const Tensor &t)
{
    u64 hash = kDigestSeed;
    const Shape s = t.shape();
    hash = fnv1a(&s.c, sizeof(s.c), hash);
    hash = fnv1a(&s.h, sizeof(s.h), hash);
    hash = fnv1a(&s.w, sizeof(s.w), hash);
    // Hash the value *bits*, so the digest distinguishes -0.0f/0.0f
    // and any rounding difference a reordered reduction would cause.
    for (i64 i = 0; i < t.size(); ++i) {
        u32 bits;
        const float v = t[i];
        std::memcpy(&bits, &v, sizeof(bits));
        hash = fnv1a(&bits, sizeof(bits), hash);
    }
    return hash;
}

} // namespace eva2
