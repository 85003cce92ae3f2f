/**
 * @file
 * Deterministic pseudo-random generator (xoshiro256**) used for key
 * generation, error sampling and workload synthesis. Determinism matters:
 * tests and benchmark tables must be reproducible run-to-run.
 */
#ifndef EFFACT_COMMON_RNG_H
#define EFFACT_COMMON_RNG_H

#include <cstdint>

#include "common/hash.h"

namespace effact {

/** xoshiro256** PRNG; not cryptographically secure (fine for a simulator). */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initializes state via splitmix64 expansion of `seed`. */
    void
    reseed(uint64_t seed)
    {
        uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            word = splitmix64(x);
        }
    }

    /** Next 64 uniform random bits. */
    uint64_t
    next()
    {
        uint64_t result = rotl(state_[1] * 5, 7) * 9;
        uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound). */
    uint64_t
    uniform(uint64_t bound)
    {
        // Rejection sampling to avoid modulo bias.
        uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    uniformReal()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Approximately Gaussian sample (central limit of 12 uniforms). */
    double
    gaussian(double sigma)
    {
        double acc = 0.0;
        for (int i = 0; i < 12; ++i)
            acc += uniformReal();
        return (acc - 6.0) * sigma;
    }

    /** Ternary sample in {-1, 0, 1}. */
    int
    ternary()
    {
        return static_cast<int>(uniform(3)) - 1;
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace effact

#endif // EFFACT_COMMON_RNG_H
