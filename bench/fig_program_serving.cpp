// Program-serving ablation: the same deterministic five-routine request
// trace is served twice through InferenceServer on the dual-tile Device1 —
// once as fixed-function requests naming a serve::Op, once as
// serve::Op::Program requests shipping the routine's canonical he::Program
// as wire bytes.  Both paths execute through the he::Program interpreter
// over GpuBackend, so the ablation isolates the cost of the generic
// wire-executable path (program serialization, parsing, validation):
// by design it must be free on the simulated timeline.
//
// `--json <path>` writes the deterministic simulated metrics; CI's
// bench-smoke job merges them into the baseline gate.  Exits non-zero if
// program-based throughput falls below 0.95x the routine-based path.
// N = 32K, L = 8, cost-only (the paper's operating point).
#include <cstring>
#include <random>

#include "bench_common.h"
#include "serve/server.h"

namespace {

/// One deterministic trace cycling the five routines over `sessions`,
/// bursty pseudo-Poisson arrivals (same construction as
/// fig_serving_latency, without the matmul jobs neither path programs).
/// `as_programs` ships each request as Op::Program + canonical bytes.
std::vector<xehe::serve::Request> make_trace(std::size_t count,
                                             std::size_t sessions,
                                             double mean_burst_gap_ns,
                                             uint64_t seed, bool as_programs) {
    std::mt19937_64 rng(seed);
    std::vector<xehe::serve::Request> trace;
    trace.reserve(count);
    double arrival = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        xehe::serve::Request req;
        req.session_id = i % sessions;
        const auto routine = static_cast<xehe::core::Routine>(i % 5);
        if (as_programs) {
            req.op = xehe::serve::Op::Program;
            req.program =
                xehe::wire::serialize(xehe::core::routine_program(routine));
        } else {
            req.op = static_cast<xehe::serve::Op>(i % 5);
        }
        req.cost_only = true;
        if (i % 6 == 0) {
            const double u =
                (static_cast<double>(rng() >> 11) + 0.5) * 0x1p-53;
            arrival += -mean_burst_gap_ns * std::log(u);
        }
        req.arrival_ns = arrival;
        trace.push_back(std::move(req));
    }
    return trace;
}

}  // namespace

int main(int argc, char **argv) {
    using namespace bench;
    using xehe::serve::InferenceServer;
    using xehe::serve::LatencyStats;
    using xehe::serve::ServerConfig;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    const xehe::ckks::CkksContext host(
        xehe::ckks::EncryptionParameters::create(32768, 8));
    const auto spec = xehe::xgpu::device1();
    xehe::core::GpuOptions opts;
    opts.isa = IsaMode::InlineAsm;

    xehe::ckks::KeyGenerator keygen(host, 99);
    const auto relin = keygen.create_relin_keys();
    const int steps[] = {1};
    const auto galois = keygen.create_galois_keys(steps);

    constexpr std::size_t kRequests = 40;
    constexpr std::size_t kSessions = 16;
    constexpr double kMeanBurstGapNs = 12.0e6;
    constexpr uint64_t kSeed = 20260729;

    print_header("Program-based vs routine-based serving on Device1",
                 "wire-executable circuits must keep the routine path's "
                 "throughput");
    std::printf("%10s%10s%10s%10s%12s\n", "path", "p50(ms)", "p95(ms)",
                "p99(ms)", "thru(rps)");

    double throughput[2] = {0.0, 0.0};
    std::vector<JsonMetric> metrics;
    for (int pi = 0; pi < 2; ++pi) {
        const bool as_programs = pi == 1;
        ServerConfig cfg;
        cfg.max_batch = 8;
        cfg.batch_window_ns = 2.0e6;
        cfg.queue_count = 0;  // one lane per tile (2 on Device1)
        cfg.functional = false;
        InferenceServer server(host, spec, opts, cfg);
        server.set_keys(relin, galois);
        for (auto &req : make_trace(kRequests, kSessions, kMeanBurstGapNs,
                                    kSeed, as_programs)) {
            server.submit(std::move(req));
        }
        const auto responses = server.run();
        const LatencyStats stats = server.stats();
        if (stats.requests != responses.size() ||
            stats.requests != kRequests) {
            std::fprintf(stderr, "error: %zu of %zu requests served\n",
                         stats.requests, kRequests);
            return 2;
        }
        const char *path = as_programs ? "program" : "routine";
        std::printf("%10s%10.3f%10.3f%10.3f%12.1f\n", path, stats.p50_ms,
                    stats.p95_ms, stats.p99_ms, stats.throughput_rps);
        throughput[pi] = stats.throughput_rps;

        const std::string prefix = std::string("program_serving/") + path;
        metrics.push_back(
            {prefix + "/p95_ms", stats.p95_ms, "ms", Better::Lower});
        metrics.push_back({prefix + "/throughput_rps", stats.throughput_rps,
                           "rps", Better::Higher});
    }

    const double relative = throughput[1] / throughput[0];
    std::printf("\nprogram-path relative throughput: %.3fx (gate >= 0.95x)\n",
                relative);
    metrics.push_back(
        {"program_serving/relative_throughput", relative, "x", Better::Higher});

    if (!json_path.empty()) {
        if (!write_json(json_path, metrics, "fig_program_serving",
                        spec.name.c_str())) {
            return 2;
        }
        std::printf("wrote %zu metrics to %s\n", metrics.size(),
                    json_path.c_str());
    }
    return relative >= 0.95 ? 0 : 1;
}
