// Tests for CRT decomposition/composition and fast base conversion.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <stdexcept>
#include <string>

#include "rns/rns_base.h"
#include "util/primes.h"

namespace xr = xehe::rns;
namespace xu = xehe::util;

namespace {
xr::RnsBase make_base(std::size_t count, int bits = 50) {
    return xr::RnsBase(xu::generate_ntt_primes(bits, 4096, count));
}
}  // namespace

TEST(RnsBase, ProductAndPunctured) {
    const auto base = make_base(3);
    // product == punctured(i) * q_i for every i.
    for (std::size_t i = 0; i < base.size(); ++i) {
        xu::BigUInt prod = base.punctured(i);
        prod.mul_word_assign(base[i].value());
        EXPECT_TRUE(prod == base.product());
        // inv_punctured is the inverse of punctured mod q_i.
        const uint64_t r = base.punctured(i).mod_word(base[i]);
        EXPECT_EQ(xu::mul_mod(r, base.inv_punctured(i), base[i]), 1ull);
    }
}

TEST(RnsBase, ComposeDecomposeRoundtrip) {
    const auto base = make_base(4);
    std::mt19937_64 rng(41);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<uint64_t> residues(base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            residues[i] = rng() % base[i].value();
        }
        const xu::BigUInt composed = base.compose(residues);
        EXPECT_TRUE(composed < base.product());
        std::vector<uint64_t> back(base.size());
        base.decompose(composed, back);
        EXPECT_EQ(back, residues);
    }
}

TEST(RnsBase, ComposeSmallValueIsExact) {
    const auto base = make_base(3);
    std::vector<uint64_t> residues(base.size(), 12345);
    const xu::BigUInt composed = base.compose(residues);
    EXPECT_EQ(composed.word(0), 12345ull);
    EXPECT_EQ(composed.significant_bit_count(), 14);
}

namespace {

/// compose_centered's oracle: BigUInt composition, centring at floor(Q/2)
/// and BigUInt::to_double, as CkksEncoder::decode did before it.
double centered_oracle(const xr::RnsBase &base,
                       std::span<const uint64_t> residues) {
    const xu::BigUInt x = base.compose(residues);
    if (x >= base.product().shr1()) {
        xu::BigUInt negated = base.product();
        negated.sub_assign(x);
        return -negated.to_double();
    }
    return x.to_double();
}

}  // namespace

TEST(RnsBase, ComposeCenteredMatchesBigUIntPathBitForBit) {
    const auto pattern = [](double d) { return std::bit_cast<uint64_t>(d); };
    std::mt19937_64 rng(77);
    for (const int bits : {32, 40, 50, 60}) {
        for (const std::size_t count : {1u, 2u, 3u, 8u}) {
            SCOPED_TRACE(::testing::Message() << count << "x" << bits);
            const auto base = make_base(count, bits);

            // Values: the edges 0, 1, Q-1 and either side of the centring
            // threshold floor(Q/2), then uniform random residues.
            std::vector<std::vector<uint64_t>> values;
            const auto add = [&](const xu::BigUInt &value) {
                std::vector<uint64_t> residues(base.size());
                base.decompose(value, residues);
                values.push_back(std::move(residues));
            };
            add(xu::BigUInt(0));
            add(xu::BigUInt(1));
            xu::BigUInt edge = base.product();
            edge.sub_assign(xu::BigUInt(1));
            add(edge);
            edge = base.product().shr1();
            edge.sub_assign(xu::BigUInt(1));
            add(edge);
            edge.add_assign(xu::BigUInt(1));
            add(edge);
            edge.add_assign(xu::BigUInt(1));
            add(edge);
            for (int trial = 0; trial < 500; ++trial) {
                std::vector<uint64_t> residues(base.size());
                for (std::size_t i = 0; i < base.size(); ++i) {
                    residues[i] = rng() % base[i].value();
                }
                values.push_back(std::move(residues));
            }

            // One batch, component-major, and each value alone.
            const std::size_t n = values.size();
            std::vector<uint64_t> batch(base.size() * n);
            for (std::size_t k = 0; k < n; ++k) {
                for (std::size_t i = 0; i < base.size(); ++i) {
                    batch[i * n + k] = values[k][i];
                }
            }
            std::vector<double> got(n);
            base.compose_centered(batch, got);
            for (std::size_t k = 0; k < n; ++k) {
                const double want = centered_oracle(base, values[k]);
                double alone = 0.0;
                base.compose_centered(values[k], std::span<double>(&alone, 1));
                EXPECT_EQ(pattern(got[k]), pattern(want)) << "value " << k;
                EXPECT_EQ(pattern(alone), pattern(want)) << "alone " << k;
            }
        }
    }
}

TEST(RnsBase, ComposeCenteredRejectsWrongResidueCount) {
    const auto base = make_base(3);
    const std::vector<uint64_t> residues(5, 1);
    std::vector<double> out(2);
    EXPECT_THROW(base.compose_centered(residues, out), std::invalid_argument);
}

TEST(RnsBase, SingleModulusDegenerate) {
    const auto base = make_base(1);
    std::vector<uint64_t> residues{777};
    EXPECT_EQ(base.compose(residues).word(0), 777ull);
}

TEST(RnsBase, SizeMismatchThrows) {
    const auto base = make_base(2);
    std::vector<uint64_t> bad(3);
    EXPECT_THROW(base.compose(bad), std::invalid_argument);
    xu::BigUInt v(1);
    EXPECT_THROW(base.decompose(v, bad), std::invalid_argument);
}

TEST(BaseConverter, ExactForSmallValues) {
    // For values far below Q the HPS conversion is exact.
    const auto in = make_base(3);
    const auto out_moduli = xu::generate_ntt_primes(40, 4096, 2);
    const xr::BaseConverter conv(in, out_moduli);
    std::mt19937_64 rng(43);
    for (int trial = 0; trial < 100; ++trial) {
        const uint64_t value = rng() >> 16;  // 48-bit value << Q
        std::vector<uint64_t> residues(in.size());
        in.decompose(xu::BigUInt(value), residues);
        std::vector<uint64_t> converted(2);
        conv.convert(residues, converted);
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_EQ(converted[j], value % out_moduli[j].value());
        }
    }
}

TEST(BaseConverter, OffByMultipleOfQOnly) {
    // For arbitrary inputs the result may differ from the exact conversion
    // by a small multiple of Q mod p (the HPS approximation error).
    const auto in = make_base(4);
    const auto out_moduli = xu::generate_ntt_primes(45, 4096, 1);
    const xr::BaseConverter conv(in, out_moduli);
    const auto &p = out_moduli[0];
    const uint64_t q_mod_p = in.product().mod_word(p);
    std::mt19937_64 rng(47);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<uint64_t> residues(in.size());
        for (std::size_t i = 0; i < in.size(); ++i) {
            residues[i] = rng() % in[i].value();
        }
        const uint64_t exact = in.compose(residues).mod_word(p);
        std::vector<uint64_t> converted(1);
        conv.convert(residues, converted);
        // difference must be a small (possibly negative) multiple of Q mod p.
        bool ok = false;
        for (int k = -2; k <= static_cast<int>(in.size()); ++k) {
            const uint64_t offset =
                xu::mul_mod(static_cast<uint64_t>(std::abs(k)), q_mod_p, p);
            const uint64_t shifted = k >= 0 ? xu::add_mod(exact, offset, p)
                                            : xu::sub_mod(exact, offset, p);
            if (shifted == converted[0]) {
                ok = true;
                break;
            }
        }
        EXPECT_TRUE(ok) << "conversion error not a small multiple of Q";
    }
}
