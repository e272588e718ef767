// Wall-clock microbenchmarks (google-benchmark) of the host modular
// arithmetic primitives that everything else is built on.
#include <benchmark/benchmark.h>

#include <random>

#include "util/modarith.h"

namespace xu = xehe::util;

namespace {

const xu::Modulus kModulus(1125899906826241ull);  // 50-bit NTT prime

std::vector<uint64_t> random_inputs(std::size_t count, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> v(count);
    for (auto &x : v) {
        x = rng() % kModulus.value();
    }
    return v;
}

}  // namespace

static void BM_AddMod(benchmark::State &state) {
    const auto a = random_inputs(4096, 1), b = random_inputs(4096, 2);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xu::add_mod(a[i & 4095], b[i & 4095],
                                             kModulus));
        ++i;
    }
}
BENCHMARK(BM_AddMod);

static void BM_MulModBarrett(benchmark::State &state) {
    const auto a = random_inputs(4096, 3), b = random_inputs(4096, 4);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xu::mul_mod(a[i & 4095], b[i & 4095],
                                             kModulus));
        ++i;
    }
}
BENCHMARK(BM_MulModBarrett);

// The fused and unfused multiply-add benches each time independent ops: the
// accumulator is read from a table, not carried from the previous
// iteration, so neither loop puts the reduction on a dependency chain and
// the two report op cost rather than latency.
static void BM_MadModFused(benchmark::State &state) {
    const auto a = random_inputs(4096, 5), b = random_inputs(4096, 6),
               c = random_inputs(4096, 12);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xu::mad_mod(a[i & 4095], b[i & 4095],
                                             c[i & 4095], kModulus));
        ++i;
    }
}
BENCHMARK(BM_MadModFused);

static void BM_MulModAddModUnfused(benchmark::State &state) {
    const auto a = random_inputs(4096, 7), b = random_inputs(4096, 8),
               c = random_inputs(4096, 13);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xu::add_mod(
            xu::mul_mod(a[i & 4095], b[i & 4095], kModulus), c[i & 4095],
            kModulus));
        ++i;
    }
}
BENCHMARK(BM_MulModAddModUnfused);

static void BM_MulModHarveyOperand(benchmark::State &state) {
    const auto a = random_inputs(4096, 9);
    const xu::MultiplyModOperand w(123456789ull % kModulus.value(), kModulus);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xu::mul_mod(a[i & 4095], w, kModulus));
        ++i;
    }
}
BENCHMARK(BM_MulModHarveyOperand);

static void BM_ForwardButterfly(benchmark::State &state) {
    auto x = random_inputs(4096, 10), y = random_inputs(4096, 11);
    const xu::MultiplyModOperand w(987654321ull % kModulus.value(), kModulus);
    std::size_t i = 0;
    for (auto _ : state) {
        xu::forward_butterfly(&x[i & 4095], &y[i & 4095], w, kModulus);
        benchmark::DoNotOptimize(x[i & 4095]);
        ++i;
    }
}
BENCHMARK(BM_ForwardButterfly);

BENCHMARK_MAIN();
