// Golden bit-exactness: every simulated-GPU NTT variant must produce output
// identical to the reference transform at the paper-scale sizes
// N in {1024, 4096, 16384, 32768} under the default (paper) kernel
// configuration, both for single transforms and for multi-poly / multi-RNS
// batches.  N = 32768 is the served shape: under LocalRadix8 it runs one
// radix-8 global kernel and then the 12 SLM rounds.  The reference itself is
// pinned against recorded output hashes, so a change that altered the GPU
// kernels and the reference path alike would still be caught.
// Complements test_ntt_gpu.cpp, which sweeps small sizes with shrunken SLM
// blocks; here the default slm_block/wg_size path is what is under test.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>

#include "ntt/ntt_gpu.h"
#include "test_common.h"

namespace xn = xehe::ntt;
namespace xg = xehe::xgpu;
namespace xt = xehe::test;

namespace {

const xn::NttVariant kAllVariants[] = {
    xn::NttVariant::NaiveRadix2,   xn::NttVariant::StagedSimd8,
    xn::NttVariant::StagedSimd16,  xn::NttVariant::StagedSimd32,
    xn::NttVariant::LocalRadix4,   xn::NttVariant::LocalRadix8,
    xn::NttVariant::LocalRadix16,
};

/// Batches and reference transforms are expensive at N = 16384; share them
/// across all 7 variants instead of rebuilding per test.
struct GoldenFixture {
    xt::Batch batch;
    std::vector<uint64_t> expect_forward;

    GoldenFixture(std::size_t n, std::size_t polys, std::size_t rns)
        : batch(xt::make_batch(n, polys, rns, /*seed=*/n + 31 * polys + rns)),
          expect_forward(xt::reference_forward(batch)) {}

    static const GoldenFixture &get(std::size_t n, std::size_t polys,
                                    std::size_t rns) {
        static std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
                        GoldenFixture>
            cache;
        auto key = std::make_tuple(n, polys, rns);
        auto it = cache.find(key);
        if (it == cache.end()) {
            it = cache.try_emplace(key, n, polys, rns).first;
        }
        return it->second;
    }
};

xn::GpuNtt make_gpu_ntt(xg::Queue &queue, xn::NttVariant variant) {
    xn::NttConfig cfg;  // default slm_block = 4096, wg_size = 512: the
    cfg.variant = variant;  // paper's operating configuration
    return xn::GpuNtt(queue, cfg);
}

/// 64-bit FNV-1a over the words of a batch: a compact fingerprint.
uint64_t fnv1a(const std::vector<uint64_t> &words) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const uint64_t w : words) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (w >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/// Recorded fingerprints of the forward and inverse transforms of one
/// fixed-seed batch (2 polys x 3 RNS primes, seed 0x5eed + n).
struct PinnedImage {
    std::size_t n;
    uint64_t forward;
    uint64_t inverse;
};

// 1024: a single SLM kernel smaller than the default block; 16384: a
// radix-4 head kernel, then SLM; 32768: one radix-8 global kernel, then SLM.
const PinnedImage kPinnedImages[] = {
    {1024, 0x657305ee88336698ull, 0x58bb9ce24059eaf3ull},
    {16384, 0x094be1f2acda48a9ull, 0xf41fba6f9bfb94bdull},
    {32768, 0x933b34381c938104ull, 0xde76510611d08ff0ull},
};

}  // namespace

class NttGoldenTest
    : public ::testing::TestWithParam<std::tuple<xn::NttVariant, std::size_t>> {
};

TEST_P(NttGoldenTest, SingleTransformBitExact) {
    const auto [variant, n] = GetParam();
    const auto &golden = GoldenFixture::get(n, 1, 1);
    auto data = golden.batch.data;

    xg::Queue queue(xg::device1());
    auto gpu = make_gpu_ntt(queue, variant);
    gpu.forward(data, 1, golden.batch.tables);
    EXPECT_EQ(data, golden.expect_forward)
        << xn::variant_name(variant) << " n=" << n;
}

TEST_P(NttGoldenTest, MultiPolyMultiRnsBatchBitExact) {
    const auto [variant, n] = GetParam();
    // 3 polynomials x 2 RNS components: the ciphertext-shaped batch the
    // dispatcher sees after an unrelinearized multiply.
    const auto &golden = GoldenFixture::get(n, 3, 2);
    auto data = golden.batch.data;

    xg::Queue queue(xg::device1());
    auto gpu = make_gpu_ntt(queue, variant);
    gpu.forward(data, golden.batch.polys, golden.batch.tables);
    EXPECT_EQ(data, golden.expect_forward)
        << xn::variant_name(variant) << " n=" << n;
}

TEST_P(NttGoldenTest, InverseRoundtripBitExact) {
    const auto [variant, n] = GetParam();
    const auto &golden = GoldenFixture::get(n, 2, 2);
    auto data = golden.batch.data;

    xg::Queue queue(xg::device2());
    auto gpu = make_gpu_ntt(queue, variant);
    gpu.forward(data, golden.batch.polys, golden.batch.tables);
    gpu.inverse(data, golden.batch.polys, golden.batch.tables);
    EXPECT_EQ(data, golden.batch.data)
        << xn::variant_name(variant) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, NttGoldenTest,
    ::testing::Combine(::testing::ValuesIn(kAllVariants),
                       ::testing::Values(1024, 4096, 16384, 32768)),
    [](const auto &info) {
        return std::string(xn::variant_name(std::get<0>(info.param))) + "_n" +
               std::to_string(std::get<1>(info.param));
    });

TEST(NttGolden, AllVariantsAgreeWithEachOther) {
    // Transitivity sanity: run every variant on the same batch and require
    // a single common output image (equal to the reference).
    const auto &golden = GoldenFixture::get(1024, 2, 3);
    for (const auto variant : kAllVariants) {
        auto data = golden.batch.data;
        xg::Queue queue(xg::device1());
        auto gpu = make_gpu_ntt(queue, variant);
        gpu.forward(data, golden.batch.polys, golden.batch.tables);
        EXPECT_EQ(data, golden.expect_forward) << xn::variant_name(variant);
    }
}

TEST(NttGolden, GpuInverseMatchesReferenceInverse) {
    // The GPU inverse must match the host inverse directly, not only close
    // the forward/inverse round trip.
    const auto &golden = GoldenFixture::get(4096, 2, 2);
    xt::Batch fwd{golden.expect_forward, golden.batch.polys,
                  golden.batch.tables};
    const auto expect = xt::reference_inverse(fwd);
    EXPECT_EQ(expect, golden.batch.data)
        << "host inverse must undo the host forward";
    for (const auto variant : kAllVariants) {
        auto data = golden.expect_forward;
        xg::Queue queue(xg::device1());
        auto gpu = make_gpu_ntt(queue, variant);
        gpu.inverse(data, golden.batch.polys, golden.batch.tables);
        EXPECT_EQ(data, expect) << xn::variant_name(variant);
    }
}

TEST(NttGolden, ReferenceMatchesNaiveOracle) {
    // Anchor the golden image itself against the O(N^2) DFT at the smallest
    // paper size (the oracle is quadratic; 1024 is cheap, 16384 is not).
    const auto &golden = GoldenFixture::get(1024, 1, 1);
    const auto oracle = xt::naive_forward(
        std::span<const uint64_t>(golden.batch.data), golden.batch.tables[0]);
    EXPECT_EQ(golden.expect_forward, oracle);
}

TEST(NttGolden, PinnedOutputHashes) {
    // Fixed-seed images recorded from an earlier build: the default GPU
    // kernels (LocalRadix8, slm_block 4096, wg_size 512) and the host
    // reference must each reproduce them bit for bit, forward and inverse.
    const auto hex = [](uint64_t h) {
        std::ostringstream os;
        os << "0x" << std::hex << h;
        return os.str();
    };
    for (const auto &pin : kPinnedImages) {
        const auto batch = xt::make_batch(pin.n, 2, 3, 0x5eed + pin.n);
        const uint64_t ref_fwd = fnv1a(xt::reference_forward(batch));
        const uint64_t ref_inv = fnv1a(xt::reference_inverse(batch));
        EXPECT_EQ(ref_fwd, pin.forward) << "ntt_forward n=" << pin.n
                                        << " got " << hex(ref_fwd);
        EXPECT_EQ(ref_inv, pin.inverse) << "ntt_inverse n=" << pin.n
                                        << " got " << hex(ref_inv);

        xg::Queue queue(xg::device1());
        auto gpu = make_gpu_ntt(queue, xn::NttVariant::LocalRadix8);
        auto fwd = batch.data;
        gpu.forward(fwd, batch.polys, batch.tables);
        EXPECT_EQ(fnv1a(fwd), pin.forward) << "GpuNtt::forward n=" << pin.n
                                           << " got " << hex(fnv1a(fwd));
        auto inv = batch.data;
        gpu.inverse(inv, batch.polys, batch.tables);
        EXPECT_EQ(fnv1a(inv), pin.inverse) << "GpuNtt::inverse n=" << pin.n
                                           << " got " << hex(fnv1a(inv));
    }
}
