// Properties of the encoder's complex negacyclic FFT and of the encoding
// itself: transform roundtrips, linearity, conjugate symmetry, Parseval-ish
// magnitude preservation, and scale handling.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <sstream>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "test_common.h"

namespace xc = xehe::ckks;
using xehe::test::complexd;
using xehe::test::max_abs_diff;
using xehe::test::random_complex;

class ComplexFftTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ComplexFftTest, ForwardInverseRoundtrip) {
    const std::size_t n = GetParam();
    const xc::ComplexFft fft(n);
    const auto original = random_complex(n, n);
    auto a = original;
    fft.forward(a);
    fft.inverse(a);
    EXPECT_LT(max_abs_diff(a, original), 1e-10);
}

TEST_P(ComplexFftTest, InverseForwardRoundtrip) {
    const std::size_t n = GetParam();
    const xc::ComplexFft fft(n);
    const auto original = random_complex(n, n + 1);
    auto a = original;
    fft.inverse(a);
    fft.forward(a);
    EXPECT_LT(max_abs_diff(a, original), 1e-10);
}

TEST_P(ComplexFftTest, Linearity) {
    const std::size_t n = GetParam();
    const xc::ComplexFft fft(n);
    auto a = random_complex(n, 2 * n);
    auto b = random_complex(n, 2 * n + 1);
    std::vector<complexd> sum(n);
    for (std::size_t i = 0; i < n; ++i) {
        sum[i] = 2.0 * a[i] + b[i];
    }
    fft.forward(a);
    fft.forward(b);
    fft.forward(sum);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + b[i])), 1e-9);
    }
}

TEST_P(ComplexFftTest, MatchesDirectEvaluation) {
    // forward output j equals the polynomial evaluated at
    // psi^(2*bitrev(j)+1) with psi = e^{i pi / n}.
    const std::size_t n = GetParam();
    if (n > 64) {
        GTEST_SKIP() << "O(N^2) oracle kept small";
    }
    const xc::ComplexFft fft(n);
    const auto a = random_complex(n, 3 * n);
    auto transformed = a;
    fft.forward(transformed);
    const int log_n = xehe::util::log2_exact(n);
    for (std::size_t j = 0; j < n; ++j) {
        const double angle = std::numbers::pi / static_cast<double>(n) *
                             (2.0 * xehe::util::reverse_bits(j, log_n) + 1.0);
        const complexd zeta{std::cos(angle), std::sin(angle)};
        complexd acc{0, 0}, power{1, 0};
        for (std::size_t k = 0; k < n; ++k) {
            acc += a[k] * power;
            power *= zeta;
        }
        EXPECT_LT(std::abs(transformed[j] - acc), 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ComplexFftTest,
                         ::testing::Values(2, 4, 16, 64, 256, 2048));

TEST(Encoder, EncodingIsAdditivelyHomomorphic) {
    const xc::CkksContext context(xc::EncryptionParameters::create(2048, 2));
    const xc::CkksEncoder encoder(context);
    const double scale = std::ldexp(1.0, 40);
    const auto a = random_complex(encoder.slots(), 11);
    const auto b = random_complex(encoder.slots(), 12);
    const auto pa = encoder.encode(std::span<const complexd>(a), scale);
    const auto pb = encoder.encode(std::span<const complexd>(b), scale);
    // Add plaintext polynomials componentwise.
    xc::Plaintext sum = pa;
    for (std::size_t r = 0; r < pa.rns; ++r) {
        const auto &q = context.key_modulus()[r];
        for (std::size_t i = 0; i < pa.n; ++i) {
            sum.data[r * pa.n + i] = xehe::util::add_mod(
                pa.data[r * pa.n + i], pb.data[r * pa.n + i], q);
        }
    }
    const auto decoded = encoder.decode(sum);
    for (std::size_t i = 0; i < encoder.slots(); ++i) {
        EXPECT_LT(std::abs(decoded[i] - (a[i] + b[i])), 1e-6);
    }
}

TEST(Encoder, ScaleControlsPrecision) {
    const xc::CkksContext context(xc::EncryptionParameters::create(2048, 2));
    const xc::CkksEncoder encoder(context);
    const auto values = random_complex(encoder.slots(), 13);
    double coarse_err = 0, fine_err = 0;
    for (auto [scale, err] : {std::pair<double, double *>{std::ldexp(1.0, 20),
                                                          &coarse_err},
                              std::pair<double, double *>{std::ldexp(1.0, 45),
                                                          &fine_err}}) {
        const auto plain = encoder.encode(std::span<const complexd>(values),
                                          scale);
        const auto decoded = encoder.decode(plain);
        for (std::size_t i = 0; i < values.size(); ++i) {
            *err = std::max(*err, std::abs(decoded[i] - values[i]));
        }
    }
    EXPECT_LT(fine_err, coarse_err / 1e4)
        << "larger scale must give far better precision";
}

TEST(Encoder, PurelyImaginaryValuesSurvive) {
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 2));
    const xc::CkksEncoder encoder(context);
    std::vector<complexd> values(encoder.slots(), complexd{0.0, 1.0});
    const auto plain =
        encoder.encode(std::span<const complexd>(values), std::ldexp(1.0, 40));
    const auto decoded = encoder.decode(plain);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_NEAR(decoded[i].real(), 0.0, 1e-7);
        EXPECT_NEAR(decoded[i].imag(), 1.0, 1e-7);
    }
}

TEST(Encoder, DecodeAfterModSwitchSemantics) {
    // Dropping the last RNS component of a plaintext must not change the
    // decoded values (the message is far below the remaining modulus).
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 3));
    const xc::CkksEncoder encoder(context);
    const auto values = random_complex(encoder.slots(), 14);
    auto plain = encoder.encode(std::span<const complexd>(values),
                                std::ldexp(1.0, 40));
    xc::Plaintext dropped = plain;
    dropped.rns -= 1;
    dropped.data.resize(dropped.rns * dropped.n);
    const auto decoded = encoder.decode(dropped);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_LT(std::abs(decoded[i] - values[i]), 1e-6);
    }
}

TEST(Encoder, DecodeValidatesShapeBeforeIndexing) {
    // Both malformed shapes must be a typed rejection before the inverse
    // NTT or the RNS base index anything by plain.rns or plain.data.
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 2));
    const xc::CkksEncoder encoder(context);
    const auto plain = encoder.encode(0.5, std::ldexp(1.0, 30));

    xc::Plaintext too_many_primes = plain;
    too_many_primes.rns = context.max_level() + 1;
    too_many_primes.data.resize(too_many_primes.rns * too_many_primes.n);
    EXPECT_THROW(encoder.decode(too_many_primes), std::invalid_argument);
    too_many_primes.rns = context.max_level() + 5;
    too_many_primes.data.resize(too_many_primes.rns * too_many_primes.n);
    EXPECT_THROW(encoder.decode(too_many_primes), std::invalid_argument);

    xc::Plaintext short_data = plain;
    short_data.data.resize(plain.data.size() - 1);
    EXPECT_THROW(encoder.decode(short_data), std::invalid_argument);
    xc::Plaintext empty_data = plain;
    empty_data.data.clear();
    EXPECT_THROW(encoder.decode(empty_data), std::invalid_argument);
}

namespace {

/// 64-bit FNV-1a over 64-bit words, byte by byte (as in NttGolden).
uint64_t fnv1a_words(std::span<const uint64_t> words) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const uint64_t w : words) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (w >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/// Fingerprint of decoded slots: the IEEE-754 bit patterns of every real
/// and imaginary part, so a change in the last ulp shows.
uint64_t fnv1a_doubles(const std::vector<complexd> &values) {
    std::vector<uint64_t> bits;
    bits.reserve(2 * values.size());
    for (const auto &v : values) {
        bits.push_back(std::bit_cast<uint64_t>(v.real()));
        bits.push_back(std::bit_cast<uint64_t>(v.imag()));
    }
    return fnv1a_words(bits);
}

/// One pinned codec image: a context of `levels` data primes, a
/// plaintext of `rns` active primes at scale 2^log_scale.
struct PinnedCodec {
    std::size_t n;
    std::size_t levels;
    std::size_t rns;
    int log_scale;
    uint64_t encoded;         ///< encode(random slots) words
    uint64_t decoded;         ///< decode(encode(random slots)) bits
    uint64_t decoded_random;  ///< decode(uniform random residues) bits
    uint64_t encrypted;       ///< encrypt_symmetric(encode(...)) words
};

const PinnedCodec kPinnedCodecs[] = {
    {1024, 2, 1, 30, 0xfa23439bdc135853ull, 0x70b43cd060efd46full,
     0x5cf3d26eed77b3d4ull, 0x364a4890e8ff3288ull},
    {1024, 2, 2, 40, 0x73e0f136b3c4e1b2ull, 0x524855d2dbd7d734ull,
     0x132b341f35c54775ull, 0x2887ac36055d1010ull},
    {8192, 3, 2, 45, 0x75b10028d52578d7ull, 0x4f42f32ca5244742ull,
     0x926818e963c94d63ull, 0xaa52fda0d8b70de7ull},
    {8192, 3, 3, 40, 0x17deb162774ef984ull, 0x317dbeebffb06708ull,
     0x5e414086f2369827ull, 0x44d2f1da1d480878ull},
    {32768, 8, 3, 40, 0xf7e6d2b8bbb76937ull, 0x08daf8448e957ae2ull,
     0xd4210c2b6550b5f8ull, 0x2ee2291a606eccb1ull},
    {32768, 8, 8, 40, 0x1ea0164cd600f682ull, 0x5d16edc63af14ee2ull,
     0x4936df1fde3a2544ull, 0x2ed1b2d912e977f1ull},
};

/// Which pinned image a failure belongs to.
std::string describe(const PinnedCodec &pin) {
    std::ostringstream os;
    os << "n=" << pin.n << " rns=" << pin.rns << " scale=2^" << pin.log_scale;
    return os.str();
}

}  // namespace

TEST(CkksGolden, PinnedEncodeDecodeHashes) {
    // Fixed-seed images recorded from an earlier build: the encoder's
    // plaintext words, the decoder's doubles and the symmetric
    // ciphertext words must reproduce them bit for bit.  The random-residue
    // plaintext decodes to values spread over the whole of [-Q/2, Q/2), so
    // CRT composition and centring are pinned far from the
    // small-coefficient regime an encoded message occupies.
    const auto pinned = [](uint64_t got, uint64_t want, const char *what) {
        std::ostringstream hex;
        hex << "0x" << std::hex << got;
        EXPECT_EQ(got, want) << what << " got " << hex.str();
    };
    for (const auto &pin : kPinnedCodecs) {
        SCOPED_TRACE(describe(pin));
        const auto params = xc::EncryptionParameters::create(pin.n, pin.levels);
        const xc::CkksContext context(params);
        const xc::CkksEncoder encoder(context);
        const double scale = std::ldexp(1.0, pin.log_scale);
        const std::size_t seed = pin.n + pin.rns + pin.log_scale;
        const auto values = random_complex(encoder.slots(), seed);
        const std::span<const complexd> slots(values);
        const auto plain = encoder.encode(slots, scale, pin.rns);
        pinned(fnv1a_words(plain.data), pin.encoded, "encode");
        pinned(fnv1a_doubles(encoder.decode(plain)), pin.decoded, "decode");

        xc::Plaintext random = plain;
        std::mt19937_64 rng(0x5eed + pin.n + pin.rns);
        for (std::size_t r = 0; r < random.rns; ++r) {
            const uint64_t q = context.key_modulus()[r].value();
            for (auto &x : random.component(r)) {
                x = rng() % q;
            }
        }
        pinned(fnv1a_doubles(encoder.decode(random)), pin.decoded_random,
               "decode(random)");

        // Symmetric encryption pins the seeded uniform expansion and the
        // error sampler along with the encoding.
        const xc::KeyGenerator keygen(context);
        xc::Encryptor encryptor(context, xc::PublicKey{}, keygen.secret_key(),
                                0xE4C + pin.n);
        const auto ct = encryptor.encrypt_symmetric(plain);
        pinned(fnv1a_words(ct.data), pin.encrypted, "encrypt_symmetric");
    }
}
