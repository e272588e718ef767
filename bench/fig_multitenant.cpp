// Multi-tenant serving at scale: one deterministic bursty trace of
// per-session requests is driven through the sharded serving front end
// (serve::ShardedServer) at 1/2/4 shards, and through a key-budget sweep
// where registered sessions far outnumber the resident expanded keysets —
// the operating regime serve::KeyManager exists for.  All clocks are
// simulated, so every metric is bit-deterministic and baseline-gated.
//
// `--json <path>` writes the metrics; CI's bench-smoke job merges them
// into the baseline gate.  Exits non-zero unless
//   - 2-shard throughput reaches >= 1.5x single-shard on the same trace,
//   - resident expanded key bytes never exceed the configured budget,
//   - the tight-budget p99 stays within 3x of the all-resident p99
//     (eviction churn must cost a bounded tail, not a collapse),
//   - a burst beyond the admission credits is rejected with the typed
//     Overloaded status (backpressure, not silent queue growth).
#include <cstring>

#include "bench_common.h"
#include "serve/sharded_server.h"

namespace {

using xehe::serve::Request;
using xehe::serve::ShardedConfig;
using xehe::serve::ShardedServer;

/// `count` cost-only routine requests in per-session bursts of four
/// (cache-friendly within a burst, cyclic across `sessions` — LRU's worst
/// case when the budget is tight), arriving in one early pile-up so the
/// shards run saturated.
std::vector<Request> make_trace(std::size_t count, std::size_t sessions) {
    std::vector<Request> trace;
    trace.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Request req;
        req.session_id = (i / 4) % sessions;
        req.op = static_cast<xehe::serve::Op>(i % 5);
        req.rotate_step = 1;
        req.cost_only = true;
        req.arrival_ns = static_cast<double>(i) * 1.0e3;  // 1 us apart
        trace.push_back(std::move(req));
    }
    return trace;
}

}  // namespace

int main(int argc, char **argv) {
    using namespace bench;
    using xehe::serve::LatencyStats;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    const xehe::ckks::CkksContext host(
        xehe::ckks::EncryptionParameters::create(2048, 6));
    const auto spec = xehe::xgpu::device1();
    xehe::core::GpuOptions opts;
    opts.isa = IsaMode::InlineAsm;

    // Every session registers the same keyset (functional execution is
    // off, so only its shape and byte size matter): one keygen, many
    // tenants, deterministic cache behavior.
    xehe::ckks::KeyGenerator keygen(host, 99);
    const auto relin = keygen.create_relin_keys();
    const int steps[] = {1};
    const auto galois = keygen.create_galois_keys(steps);
    const std::size_t keyset_bytes =
        xehe::serve::expanded_key_bytes(relin, galois);

    constexpr std::size_t kRequests = 384;  // two bursts per session
    constexpr std::size_t kSessions = 48;

    const auto run_config = [&](std::size_t shards,
                                std::size_t budget_keysets) {
        ShardedConfig cfg;
        cfg.shard_count = shards;
        cfg.credits_per_shard = kRequests;  // no rejections in this sweep
        cfg.key_budget_bytes = budget_keysets * keyset_bytes;
        cfg.shard.functional = false;
        cfg.shard.batch_window_ns = 2.0e6;
        ShardedServer server(host, spec, opts, cfg);
        for (uint64_t s = 0; s < kSessions; ++s) {
            server.register_session_keys(s, relin, galois);
        }
        for (auto &req : make_trace(kRequests, kSessions)) {
            server.submit(std::move(req));
        }
        server.run();
        return server.stats();
    };

    print_header("Multi-tenant serving: shard scaling x key-cache budget",
                 "sessions >> resident keys on 1/2/4 simulated devices");
    std::printf("%7s%8s%10s%10s%12s%8s%8s%10s\n", "shards", "budget",
                "p50(ms)", "p99(ms)", "thru(rps)", "hits", "misses",
                "evicted");

    std::vector<JsonMetric> metrics;
    const auto report = [&](const char *tag, const LatencyStats &stats,
                            std::size_t shards, std::size_t budget_keysets) {
        std::printf("%7zu%8zu%10.3f%10.3f%12.1f%8zu%8zu%10zu\n", shards,
                    budget_keysets, stats.p50_ms, stats.p99_ms,
                    stats.throughput_rps, stats.keys.hits, stats.keys.misses,
                    stats.keys.evictions);
        const std::string prefix = std::string("multitenant/") + tag;
        metrics.push_back(
            {prefix + "/p99_ms", stats.p99_ms, "ms", Better::Lower});
        metrics.push_back({prefix + "/throughput_rps", stats.throughput_rps,
                           "rps", Better::Higher});
    };

    bool ok = true;

    // --- shard scaling at a moderate per-shard budget -------------------
    double shard_throughput[3] = {0.0, 0.0, 0.0};
    const std::size_t shard_counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
        const auto stats = run_config(shard_counts[i], 16);
        report(("shards" + std::to_string(shard_counts[i])).c_str(), stats,
               shard_counts[i], 16);
        shard_throughput[i] = stats.throughput_rps;
        if (stats.requests != kRequests || stats.overloaded != 0) {
            std::fprintf(stderr, "error: %zu/%zu served, %zu overloaded\n",
                         stats.requests, kRequests, stats.overloaded);
            ok = false;
        }
        if (stats.keys.peak_resident_bytes > stats.keys.budget_bytes) {
            std::fprintf(stderr,
                         "error: resident keys %zu exceed budget %zu\n",
                         stats.keys.peak_resident_bytes,
                         stats.keys.budget_bytes);
            ok = false;
        }
    }
    const double scaling = shard_throughput[1] / shard_throughput[0];
    std::printf("\n2-shard throughput scaling: %.2fx\n", scaling);
    metrics.push_back(
        {"multitenant/shard2_speedup", scaling, "x", Better::Higher});
    if (scaling < 1.5) {
        std::fprintf(stderr, "error: 2-shard scaling %.2fx < 1.5x\n",
                     scaling);
        ok = false;
    }

    // --- key-budget sweep on one shard: 48 sessions vs 4..48 resident ---
    double p99_tight = 0.0;
    double p99_all = 0.0;
    for (const std::size_t budget : {std::size_t{4}, std::size_t{16},
                                     std::size_t{48}}) {
        const auto stats = run_config(1, budget);
        report(("budget" + std::to_string(budget)).c_str(), stats, 1,
               budget);
        const double total =
            static_cast<double>(stats.keys.hits + stats.keys.misses);
        metrics.push_back(
            {"multitenant/budget" + std::to_string(budget) + "/hit_rate",
             total > 0.0 ? static_cast<double>(stats.keys.hits) / total : 0.0,
             "ratio", Better::Higher});
        if (stats.keys.peak_resident_bytes > stats.keys.budget_bytes) {
            std::fprintf(stderr,
                         "error: resident keys %zu exceed budget %zu\n",
                         stats.keys.peak_resident_bytes,
                         stats.keys.budget_bytes);
            ok = false;
        }
        if (budget == 4) {
            p99_tight = stats.p99_ms;
        } else if (budget == 48) {
            p99_all = stats.p99_ms;
        }
    }
    const double tail_ratio = p99_tight / p99_all;
    std::printf("tight-budget p99 inflation: %.2fx\n", tail_ratio);
    metrics.push_back(
        {"multitenant/tight_budget_p99_ratio", tail_ratio, "x", Better::Lower});
    if (tail_ratio > 3.0) {
        std::fprintf(stderr, "error: tight-budget p99 %.2fx > 3x\n",
                     tail_ratio);
        ok = false;
    }

    // --- backpressure: a burst beyond the admission credits -------------
    {
        ShardedConfig cfg;
        cfg.shard_count = 2;
        cfg.credits_per_shard = 8;
        cfg.key_budget_bytes = 8 * keyset_bytes;
        cfg.shard.functional = false;
        ShardedServer server(host, spec, opts, cfg);
        for (uint64_t s = 0; s < kSessions; ++s) {
            server.register_session_keys(s, relin, galois);
        }
        std::size_t admitted = 0;
        for (auto &req : make_trace(64, kSessions)) {
            admitted += server.submit(std::move(req)) ? 1 : 0;
        }
        server.run();
        const auto stats = server.stats();
        std::printf("overload burst: %zu admitted, %zu rejected typed\n",
                    admitted, stats.overloaded);
        metrics.push_back({"multitenant/overload_rejected",
                           static_cast<double>(stats.overloaded), "count",
                           Better::Lower});
        if (stats.overloaded == 0 ||
            stats.overloaded + admitted != 64) {
            std::fprintf(stderr, "error: overload burst not rejected "
                                 "(admitted %zu, overloaded %zu)\n",
                         admitted, stats.overloaded);
            ok = false;
        }
    }

    if (!json_path.empty()) {
        if (!write_json(json_path, metrics, "fig_multitenant",
                        spec.name.c_str())) {
            return 2;
        }
        std::printf("wrote %zu metrics to %s\n", metrics.size(),
                    json_path.c_str());
    }
    return ok ? 0 : 1;
}
