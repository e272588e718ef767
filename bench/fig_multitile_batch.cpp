// Multi-tile batched serving: many concurrent sessions, each running the
// Section IV-C routine mix plus matmul-tile accumulations, scheduled
// through the event-based multi-queue scheduler on the dual-tile Device1.
// Compares the single-queue baseline against per-tile queues and reports
// the simulated serving throughput and speedup; also runs the encrypted
// matmul with round-robined output tiles (Section IV-E on two tiles).
//
// `--json <path>` writes the deterministic simulated metrics in a
// google-benchmark-compatible layout; CI's bench-smoke job diffs that
// file against bench/baseline.json to catch cost-model regressions.
// N = 32K, L = 8, cost-only (the paper's operating point).
#include <cstring>

#include "bench_common.h"
#include "xehe/evaluator_pool.h"
#include "xehe/matmul.h"

int main(int argc, char **argv) {
    using namespace bench;
    using xehe::core::BatchReport;
    using xehe::core::BatchWorkload;
    using xehe::core::GpuOptions;
    using xehe::core::MatmulConfig;
    using xehe::core::run_batch_serving;
    using xehe::core::run_encrypted_matmul;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    const xehe::ckks::CkksContext host(
        xehe::ckks::EncryptionParameters::create(32768, 8));
    const auto spec = xehe::xgpu::device1();

    GpuOptions opts;
    opts.isa = IsaMode::InlineAsm;

    BatchWorkload workload;
    workload.sessions = 8;
    workload.rounds = 1;
    workload.matmul_tiles = 2;
    workload.functional = false;

    std::vector<bench::JsonMetric> metrics;

    // --- batched serving: 1 queue vs one queue per tile -----------------
    print_header("Batched multi-tile serving on Device1",
                 "Figs. 2 and 16-18, Section III-D");
    std::printf("%8s%10s%14s%12s%14s%12s\n", "queues", "ops", "makespan",
                "busy", "throughput", "efficiency");
    std::printf("%8s%10s%14s%12s%14s%12s\n", "", "", "(ms)", "(ms)", "(ops/s)",
                "");
    BatchReport reports[2];
    const int queue_counts[2] = {1, 0};  // 0 = one queue per tile
    for (int i = 0; i < 2; ++i) {
        reports[i] =
            run_batch_serving(host, spec, opts, workload, queue_counts[i]);
        const auto &r = reports[i];
        std::printf("%8zu%10zu%14.3f%12.3f%14.0f%11.0f%%\n", r.queues, r.ops,
                    r.makespan_ms, r.busy_ms, r.throughput_ops_per_s(),
                    100.0 * r.parallel_efficiency());
        metrics.push_back({"batch_serving/q" + std::to_string(r.queues) +
                               "/makespan_ms",
                           r.makespan_ms, "ms", Better::Lower});
        metrics.push_back({"batch_serving/q" + std::to_string(r.queues) +
                               "/kernel_ms",
                           r.kernel_ms, "ms", Better::Lower});
    }
    const double serving_speedup =
        reports[0].makespan_ms / reports[1].makespan_ms;
    std::printf("\nmulti-tile serving speedup: %.2fx "
                "(aggregate kernel time invariant: %.3f vs %.3f ms)\n",
                serving_speedup, reports[0].kernel_ms, reports[1].kernel_ms);
    metrics.push_back({"batch_serving/multitile_speedup", serving_speedup,
                       "x", Better::Higher});

    // --- per-routine single-session profile (regression anchors) --------
    {
        xehe::core::RoutineBench single(host, spec, opts, /*functional=*/false);
        for (const auto routine : xehe::core::kAllRoutines) {
            const auto p = single.run(routine);
            metrics.push_back({std::string("routine/") +
                                   xehe::core::routine_name(routine) +
                                   "/total_ms",
                               p.total_ms(), "ms", Better::Lower});
        }
    }

    // --- encrypted matmul with round-robined output tiles ---------------
    print_header("Encrypted matmul, output tiles across queues",
                 "Fig. 19 on two tiles");
    std::printf("%8s%14s%12s\n", "queues", "makespan(ms)", "busy(ms)");
    MatmulConfig mm;
    mm.device = spec;
    mm.gpu = opts;
    mm.functional = false;
    double matmul_ms[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
        mm.queues = queue_counts[i];
        const auto report = run_encrypted_matmul(mm);
        matmul_ms[i] = report.sim_total_ms;
        std::printf("%8zu%14.3f%12.3f\n", report.queues, report.sim_total_ms,
                    report.sim_busy_ms);
        metrics.push_back({"matmul/q" + std::to_string(report.queues) +
                               "/total_ms",
                           report.sim_total_ms, "ms", Better::Lower});
    }
    const double matmul_speedup = matmul_ms[0] / matmul_ms[1];
    std::printf("\nmulti-tile matmul speedup: %.2fx\n", matmul_speedup);
    metrics.push_back(
        {"matmul/multitile_speedup", matmul_speedup, "x", Better::Higher});

    if (!json_path.empty()) {
        if (!bench::write_json(json_path, metrics, "fig_multitile_batch",
                               spec.name.c_str())) {
            return 2;
        }
        std::printf("\nwrote %zu metrics to %s\n", metrics.size(),
                    json_path.c_str());
    }
    return serving_speedup >= 1.5 ? 0 : 1;
}
