// Randomness for key generation and encryption: uniform residues, ternary
// secrets, and a centered-binomial error sampler standing in for the
// discrete Gaussian (standard deviation ~3.2, as in SEAL).
#pragma once

#include <random>
#include <span>
#include <vector>

#include "util/modarith.h"

namespace xehe::util {

class RandomGenerator {
public:
    explicit RandomGenerator(uint64_t seed = 0x5EA1C0DEull) : engine_(seed) {}

    uint64_t uniform_uint64() { return engine_(); }

    // Uniform residue sampling lives in expand_uniform_seeded below: the
    // seed-compressed wire format must re-expand identically everywhere,
    // so nothing may sample uniforms through the implementation-defined
    // std::uniform_int_distribution.

    /// Samples a ternary coefficient in {-1, 0, 1}, returned as a signed int.
    int ternary() {
        std::uniform_int_distribution<int> dist(-1, 1);
        return dist(engine_);
    }

    /// Centered binomial error with standard deviation ~3.2 (eta = 21 gives
    /// sigma = sqrt(21/2) ~ 3.24), clipped implicitly by construction.
    int cbd_error() {
        int sum = 0;
        for (int i = 0; i < 21; ++i) {
            sum += static_cast<int>(engine_() & 1);
            sum -= static_cast<int>(engine_() & 1);
        }
        return sum;
    }

    std::mt19937_64 &engine() { return engine_; }

private:
    std::mt19937_64 engine_;
};

/// Expands `seed` into uniform residues mod `moduli[r]` for each of the
/// `moduli.size()` components of one RNS polynomial (n words each), writing
/// component r into out[r*n .. r*n+n).
///
/// This is the expansion behind wire seed compression: the uniform `a`
/// component of fresh keys and symmetric ciphertexts travels as its seed
/// and is regenerated on load, so the expansion must be reproducible
/// everywhere.  It therefore uses rejection sampling on raw mt19937_64
/// words (the engine's output sequence is fully specified by the standard)
/// instead of std::uniform_int_distribution, whose algorithm is
/// implementation-defined and may differ across standard libraries.  The
/// accepted word is reduced by Barrett, the same x mod q without a
/// division.
inline void expand_uniform_seeded(std::span<uint64_t> out,
                                  std::span<const Modulus> moduli,
                                  std::size_t n, uint64_t seed) {
    std::mt19937_64 engine(seed);
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        const uint64_t q = moduli[r].value();
        // Largest multiple of q representable in 64 bits; values at or
        // above it are rejected so that x % q is exactly uniform.
        const uint64_t limit =
            ~uint64_t{0} - (~uint64_t{0} % q);
        for (std::size_t k = 0; k < n; ++k) {
            uint64_t x = engine();
            while (x >= limit) {
                x = engine();
            }
            out[r * n + k] = barrett_reduce_64(x, moduli[r]);
        }
    }
}

/// Maps a signed small value into [0, q) (centered representation).
inline uint64_t signed_to_mod(int value, const Modulus &q) {
    return value >= 0 ? static_cast<uint64_t>(value)
                      : q.value() - static_cast<uint64_t>(-value);
}

}  // namespace xehe::util
