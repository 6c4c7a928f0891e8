/**
 * @file
 * FNV-1a digests: the chaining primitive behind every output-identity
 * check in the repo. A frame's output tensor hashes to one u64
 * (tensor_digest, tensor/tensor_ops.h); a stream chains its frames'
 * digests in order, and a report chains its streams' digests, all
 * with digest_combine from kDigestSeed. Any two executions that
 * produce the same bits in the same order reproduce the same chain.
 */
#ifndef EVA2_UTIL_DIGEST_H
#define EVA2_UTIL_DIGEST_H

#include <cstddef>

#include "util/common.h"

namespace eva2 {

/** Seed for the chained frame/stream digests (FNV offset basis). */
constexpr u64 kDigestSeed = 1469598103934665603ull;

/** Fold `bytes` bytes at `data` into FNV-1a state `hash`. */
inline u64
fnv1a(const void *data, size_t bytes, u64 hash)
{
    constexpr u64 kFnvPrime = 1099511628211ull;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/**
 * Fold digest `b` into chain `a`. Both the per-stream frame chain and
 * the report-level stream chain use this, so any layer that processes
 * the same frames in the same order reproduces the same digest.
 */
inline u64
digest_combine(u64 a, u64 b)
{
    return fnv1a(&b, sizeof(b), a);
}

} // namespace eva2

#endif // EVA2_UTIL_DIGEST_H
