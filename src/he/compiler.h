// he::ProgramCompiler — the optimizing pass pipeline over the he::Program
// IR (EVA-style: rescale/mod-switch placement planned over the whole
// circuit instead of greedily at each op).
//
// Passes, in order:
//  1. canonicalize — commutative operands into a canonical order
//     (Multiply always: the modular product is bit-commutative; Add only
//     when the planner proves both operand scales identical, since the
//     result adopts the first operand's scale metadata), and
//     Multiply(x, x) rewritten to Square (bit-identical on both
//     backends: the host square IS multiply(a, a), and the GPU square's
//     cross term cross+cross equals multiply's a0b1+a1b0).
//  2. CSE — structurally identical nodes (op, operands, imm) merge; the
//     canonical operand order makes commutative duplicates structural.
//  3. DCE — nodes (and constants) no output transitively reads are
//     dropped.  Outputs are never dropped.
//  4. plan — the level/scale planner.  Pure alignment nodes (the `align`
//     ops of he::kOpTable) that only scale-gated cipher pairs (Add/Sub)
//     or further alignment nodes consume, and which are not outputs, are
//     stripped, and alignment is re-derived at each consumer from a
//     symbolic (size, level, scale) execution of kOpTable's transfer
//     rules in the backends' own double arithmetic.  Level gaps
//     repair with ModSwitch chains; scale gaps within the snap tolerance
//     repair by adopting the partner's scale (folded into the last
//     inserted ModSwitch as a ModSwitchAdopt when possible, else an
//     AdoptScale copy); larger gaps are compile errors — a compiled
//     program therefore interprets with zero Session multiply-by-one
//     fixups, and consumes only the levels its data flow forces (a
//     client circuit that over-switched both operands comes out
//     shallower).  Requires a bound context; without one the pass is
//     skipped.
//  5. prefuse — maximal runs of consecutive, mutually independent
//     single-launch dyadic ops are annotated as Program::fusion_groups,
//     so the interpreter hands the GPU backend pre-planned
//     FusionBuilder groups instead of launching one kernel per node.
//
// Every pass except plan is bit-exact by construction.  plan preserves
// decoded results; when it inserts or removes nothing
// (PassReport::bit_exact()), the compiled program's interpretation is
// bit-identical to the raw one.  The five canonical routine programs
// compile to themselves (tests/test_he_compiler.cpp pins this).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "he/program.h"

namespace xehe::he {

struct CompilerOptions {
    bool canonicalize = true;
    bool cse = true;
    bool dce = true;
    bool plan = true;
    bool prefuse = true;
    /// Relative scale distance the planner repairs by adoption (the
    /// session's snap); gaps beyond it are compile errors.
    double snap_tolerance = 0.25;
    /// Level (active prime count) the planner assumes for every program
    /// input.  0 = the context's max level.
    std::size_t input_level = 0;
    /// Scale the planner assumes for every program input.  0 = the
    /// session default (the value of the last data prime).
    double input_scale = 0.0;
    /// Run ProgramAnalyzer (strict mode, the planner's input facts) over
    /// every compiled program and throw std::logic_error if any pass
    /// emitted a must-fail node — a compiler-bug tripwire.  Only applies
    /// when planning runs (unplanned output is legitimately misaligned).
    bool self_verify = true;
};

/// What the pipeline did — per-pass counters plus the bit-exactness
/// verdict the differential tests key on.
struct PassReport {
    std::size_t canonicalized = 0;   ///< nodes reordered or strength-reduced
    std::size_t cse_merged = 0;
    std::size_t dce_removed = 0;     ///< dead nodes dropped
    std::size_t constants_removed = 0;
    std::size_t plan_removed = 0;    ///< alignment nodes stripped
    std::size_t plan_inserted = 0;   ///< alignment nodes re-derived
    std::size_t fused_nodes = 0;     ///< nodes inside fusion groups
    /// True when the planner changed nothing: the compiled program's
    /// node-for-node interpretation is then bit-identical to raw (the
    /// other passes only merge, drop or reorder bit-commutative work).
    bool bit_exact() const noexcept {
        return plan_removed == 0 && plan_inserted == 0;
    }
};

struct CompiledProgram {
    Program program;
    ProgramStats before;
    ProgramStats after;
    PassReport report;
};

class ProgramCompiler {
public:
    /// Context-free compiler: canonicalize/CSE/DCE/prefuse only (the
    /// planner needs prime values to mirror rescale scale arithmetic).
    explicit ProgramCompiler(CompilerOptions options = {});
    /// Full pipeline bound to the scheme context.
    explicit ProgramCompiler(const ckks::CkksContext &context,
                             CompilerOptions options = {});

    const CompilerOptions &options() const noexcept { return options_; }

    /// Runs the pipeline.  Throws std::invalid_argument on programs the
    /// planner cannot make raw-executable (scale gaps beyond the snap
    /// tolerance, size-3 operands where size 2 is required, rescale past
    /// the last level).
    CompiledProgram compile(const Program &program) const;

private:
    const ckks::CkksContext *context_ = nullptr;
    CompilerOptions options_;
};

/// The bounded cache of compiled programs that every compiling seam
/// holds (Session::run, the server's compile-on-admit).  A key is a
/// caller scope, the compile assumptions the result depends on and the
/// program's serialized bytes, so equal keys mean byte-equal programs
/// compiled under identical assumptions: a hit can never serve the wrong
/// circuit.  (The wire body carries no fusion groups, so byte equality is
/// structurally_equal.)  At kCapacity entries the cache clears before
/// inserting, so a caller cycling circuits cannot grow it unboundedly.
class CompileCache {
public:
    static constexpr std::size_t kCapacity = 256;

    /// `scope` (the server's session id; 0 for a private cache), then the
    /// bits of `options`' input_level, input_scale and snap_tolerance,
    /// then `program_bytes`.
    static std::string key(uint64_t scope, const CompilerOptions &options,
                           std::span<const uint8_t> program_bytes);

    /// The entry under `key`, or else miss()'s compiled program, inserted.
    /// A miss that throws inserts nothing.
    std::shared_ptr<const Program> get_or_compile(
        std::string key, const std::function<Program()> &miss);

    std::size_t size() const noexcept { return entries_.size(); }
    std::size_t hits() const noexcept { return hits_; }

private:
    std::unordered_map<std::string, std::shared_ptr<const Program>> entries_;
    std::size_t hits_ = 0;
};

}  // namespace xehe::he
