#include "xgpu/costmodel.h"

#include <algorithm>
#include <cmath>

namespace xehe::xgpu {

double core_op_cost(CoreOp op, IsaMode mode) noexcept {
    const bool optimized = (mode == IsaMode::InlineAsm);
    switch (op) {
        case CoreOp::AddMod:
            return optimized ? 3.0 : 4.0;   // Fig. 3: drop the `sel`
        case CoreOp::SubMod:
            return optimized ? 3.0 : 4.0;
        case CoreOp::Mul64:
            return optimized ? 3.0 : 8.0;   // Fig. 4: mul_low_high
        case CoreOp::MulMod:
            // Barrett: 3 wide multiplies + shift/sub/correction.
            return 3.0 * core_op_cost(CoreOp::Mul64, mode) + 4.0;
        case CoreOp::MadMod:
            // One 128-bit accumulate folded before a single reduction.
            return core_op_cost(CoreOp::MulMod, mode) + 2.0;
        case CoreOp::MulModAddMod:
            return core_op_cost(CoreOp::MulMod, mode) +
                   core_op_cost(CoreOp::AddMod, mode);
    }
    return 0.0;
}

double CostModel::occupancy(double work_items, int tiles_used) const noexcept {
    if (work_items <= 0.0) {
        return 1.0;
    }
    const double simd_threads = work_items / spec_.simd_width;
    const double saturation =
        spec_.resident_threads(tiles_used) * spec_.saturation_waves;
    const double ratio = simd_threads / saturation;
    if (ratio >= 1.0) {
        return 1.0;
    }
    return std::pow(ratio, spec_.occupancy_exponent);
}

double CostModel::kernel_time_ns(const KernelStats &stats,
                                 const ExecConfig &cfg) const {
    const int tiles = std::max(1, std::min(cfg.tiles, spec_.tiles));
    // Occupancy is evaluated against single-tile saturation: explicit
    // multi-queue submission splits the batch, and each tile's latency
    // hiding sees its own share of the resident threads.
    const double occ = occupancy(stats.work_items, 1);
    // Memory systems saturate with far fewer threads than the ALUs.
    const double occ_mem =
        std::min(1.0, occ * spec_.mem_occupancy_boost);
    // Multi-tile submission through several queues scales imperfectly.
    const double tile_scale =
        tiles > 1 ? tiles * spec_.multi_tile_efficiency : 1.0;

    const double asm_factor =
        cfg.isa == IsaMode::InlineAsm
            ? (stats.asm_sensitive * spec_.asm_alu_factor +
               (1.0 - stats.asm_sensitive))
            : 1.0;

    const double alu_rate =
        spec_.peak_int64_ops(1) * tile_scale * spec_.alu_efficiency * occ;
    const double gmem_rate = spec_.gmem_bandwidth(1) * tile_scale * occ_mem;
    const double slm_rate = spec_.slm_bandwidth(1) * tile_scale * occ_mem;
    const double shuffle_rate = spec_.shuffle_rate(1) * tile_scale * occ;

    double t = 0.0;
    if (stats.alu_ops > 0.0) {
        t = std::max(t, stats.alu_ops * asm_factor / alu_rate);
    }
    const double gmem_traffic =
        (stats.gmem_eff > 0.0 ? stats.gmem_bytes / stats.gmem_eff : 0.0) +
        stats.spill_bytes;
    if (gmem_traffic > 0.0) {
        t = std::max(t, gmem_traffic / gmem_rate);
    }
    if (stats.slm_bytes > 0.0 && stats.slm_eff > 0.0) {
        const double eff = std::min(1.0,
                                    stats.slm_eff * spec_.slm_exchange_scale);
        t = std::max(t, stats.slm_bytes / (slm_rate * eff));
    }
    if (stats.shuffle_ops > 0.0) {
        t = std::max(t, stats.shuffle_ops / shuffle_rate);
    }

    return t * 1e9 + launch_overhead_ns(cfg);
}

}  // namespace xehe::xgpu
