// Shared harness for the figure/table reproduction benchmarks: NTT sweep
// runner (cost-only at the paper's 32K / 1024-instance operating point),
// table printing, and the paper's parameter defaults (N = 32K, RNS size 8).
#pragma once

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ntt/ntt_gpu.h"
#include "xehe/routines.h"

namespace bench {

/// Which way a metric improves.  compare_baseline.py gates each baseline
/// entry on its declared direction; the metric's name never decides it.
enum class Better { Lower, Higher };

/// The clock a metric's value came from.  Simulated values reproduce bit
/// for bit and are gated exactly against the baseline; wall-clock values
/// ride in the artifact but merge_bench_json.py --require drops them from
/// the gated merge, and compare_baseline.py refuses them as baselines.
enum class Clock { Sim, Wall };

/// One metric destined for the CI artifact and, when simulated, the
/// baseline diff.  The constructor makes the direction a required
/// argument.
struct JsonMetric {
    JsonMetric(std::string name_, double value_, const char *unit_,
               Better better_, Clock clock_ = Clock::Sim)
        : name(std::move(name_)), value(value_), unit(unit_),
          better(better_), clock(clock_) {}

    std::string name;
    double value;      ///< ms for *_ms entries, ratio for *_speedup
    const char *unit;
    Better better;
    Clock clock;
};

/// google-benchmark-style JSON so the CI artifact and the baseline diff
/// tooling read one format for simulated and wall-clock benches alike.
/// Returns false if the path cannot be opened for writing.
inline bool write_json(const std::string &path,
                       const std::vector<JsonMetric> &metrics,
                       const char *source, const char *device_name) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return false;
    }
    out << "{\n  \"context\": {\n"
        << "    \"device\": \"" << device_name << "\",\n"
        << "    \"source\": \"" << source << "\",\n"
        << "    \"deterministic\": true\n  },\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &m = metrics[i];
        out << "    {\"name\": \"" << m.name << "\", "
            << "\"run_type\": \"iteration\", "
            << "\"real_time\": " << m.value << ", "
            << "\"time_unit\": \"" << m.unit << "\", "
            << "\"direction\": \""
            << (m.better == Better::Higher ? "higher" : "lower") << "\", "
            << "\"clock\": \"" << (m.clock == Clock::Wall ? "wall" : "sim")
            << "\"}"
            << (i + 1 < metrics.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return out.good();
}

using xehe::ntt::GpuNtt;
using xehe::ntt::NttConfig;
using xehe::ntt::NttTables;
using xehe::ntt::NttVariant;
using xehe::xgpu::DeviceSpec;
using xehe::xgpu::ExecConfig;
using xehe::xgpu::IsaMode;
using xehe::xgpu::Queue;

/// NTT tables cache keyed by (n, rns) — prime search and root powers are
/// expensive enough to reuse across sweep points.
inline const std::vector<NttTables> &tables_for(std::size_t n,
                                                std::size_t rns) {
    static std::map<std::pair<std::size_t, std::size_t>, std::vector<NttTables>>
        cache;
    auto key = std::make_pair(n, rns);
    auto it = cache.find(key);
    if (it == cache.end()) {
        auto moduli = xehe::util::generate_ntt_primes(50, n, rns);
        it = cache.emplace(key, xehe::ntt::make_ntt_tables(n, moduli)).first;
    }
    return it->second;
}

struct NttRun {
    double time_ns = 0.0;
    double alu_ops = 0.0;
    double efficiency = 0.0;  ///< vs single-tile int64 peak (paper's metric)
};

/// Cost-only batched forward NTT at (n, instances, rns) under the given
/// variant/ISA/tile configuration.
inline NttRun run_ntt(const DeviceSpec &spec, NttVariant variant, IsaMode isa,
                      int tiles, std::size_t n, std::size_t instances,
                      std::size_t rns = 8) {
    Queue queue(spec, ExecConfig{tiles, isa, true});
    queue.set_functional(false);
    NttConfig cfg;
    cfg.variant = variant;
    GpuNtt ntt(queue, cfg);
    const auto &tables = tables_for(n, rns);
    NttRun run;
    run.time_ns = ntt.forward({}, instances, tables);
    run.alu_ops = queue.profiler().total_alu_ops();
    run.efficiency =
        run.alu_ops / (run.time_ns * 1e-9) / spec.peak_int64_ops(1);
    return run;
}

inline void print_header(const char *title, const char *paper_ref) {
    std::printf(
        "\n================================================================"
        "\n");
    std::printf("%s\n(reproduces %s)\n", title, paper_ref);
    std::printf(
        "================================================================\n");
}

inline void print_row(const std::string &label,
                      const std::vector<double> &values,
                      const char *fmt = "%10.3f") {
    std::printf("%-28s", label.c_str());
    for (double v : values) {
        std::printf(fmt, v);
    }
    std::printf("\n");
}

inline void print_cols(const char *label,
                       const std::vector<std::string> &cols) {
    std::printf("%-28s", label);
    for (const auto &c : cols) {
        std::printf("%10s", c.c_str());
    }
    std::printf("\n");
}

}  // namespace bench
