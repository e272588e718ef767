// Dyadic-kernel fusion ablation: every Section IV-C routine with the
// fusion layer off vs on (GpuOptions::fuse_dyadic), on both synthetic
// devices.  Fusion merges the non-NTT element-wise chains into one launch
// per RNS limb group — fewer launch overheads, merged byte traffic, and
// better occupancy for the sub-saturated per-limb kernels — while the NTT
// kernel structure and every ciphertext bit stay identical
// (tests/test_fusion.cpp proves the latter differentially).
//
// The operating point (N = 1K, L = 8) is the launch-bound end of the
// paper's parameter range, where per-limb kernel counts dominate; at the
// N = 32K roofline point fusion still removes the same launches but the
// NTT share grows, so the headline is reported here.
//
// `--json <path>` writes the deterministic simulated metrics; CI diffs
// them against bench/baseline.json next to the fig_multitile_batch
// metrics.  Exits non-zero unless every device shows >= 1.3x total-time
// speedup on at least one routine.
#include <cstring>

#include "bench_common.h"

int main(int argc, char **argv) {
    using namespace bench;
    using xehe::core::GpuOptions;
    using xehe::core::RoutineBench;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    const xehe::ckks::CkksContext host(
        xehe::ckks::EncryptionParameters::create(1024, 8));

    std::vector<JsonMetric> metrics;
    bool all_devices_pass = true;

    for (const DeviceSpec &spec : {xehe::xgpu::device1(),
                                   xehe::xgpu::device2()}) {
        print_header(("Dyadic-kernel fusion on " + spec.name).c_str(),
                     "the launch/traffic costs of Figs. 5, 16 and 18");
        std::printf("%-20s%14s%14s%10s%12s%12s\n", "routine", "unfused(ms)",
                    "fused(ms)", "speedup", "launches", "fused");
        double best = 0.0;
        for (const auto routine : xehe::core::kAllRoutines) {
            const char *name = xehe::core::routine_name(routine);
            double total_ms[2] = {0.0, 0.0};
            std::size_t submissions[2] = {0, 0};
            for (int fused = 0; fused < 2; ++fused) {
                GpuOptions opts;
                opts.isa = IsaMode::InlineAsm;
                opts.fuse_dyadic = fused == 1;
                RoutineBench bench(host, spec, opts, /*functional=*/false);
                const auto profile = bench.run(routine);
                total_ms[fused] = profile.total_ms();
                submissions[fused] =
                    bench.gpu().queue().profiler().submissions();
            }
            const double speedup = total_ms[0] / total_ms[1];
            best = std::max(best, speedup);
            std::printf("%-20s%14.3f%14.3f%9.2fx%12zu%12zu\n", name,
                        total_ms[0], total_ms[1], speedup, submissions[0],
                        submissions[1]);
            const std::string prefix =
                "fusion/" + spec.name + "/" + name + "/";
            metrics.push_back(
                {prefix + "unfused_ms", total_ms[0], "ms", Better::Lower});
            metrics.push_back(
                {prefix + "fused_ms", total_ms[1], "ms", Better::Lower});
            metrics.push_back(
                {prefix + "fused_speedup", speedup, "x", Better::Higher});
        }
        std::printf("\nbest fused-vs-unfused speedup on %s: %.2fx\n",
                    spec.name.c_str(), best);
        if (best < 1.3) {
            all_devices_pass = false;
        }
    }

    if (!json_path.empty()) {
        if (!write_json(json_path, metrics, "fig_fusion", "Device1+Device2")) {
            return 2;
        }
        std::printf("\nwrote %zu metrics to %s\n", metrics.size(),
                    json_path.c_str());
    }
    return all_devices_pass ? 0 : 1;
}
