#include "he/analyze.h"

#include <algorithm>
#include <cmath>
#include <array>
#include <limits>

#include "ckks/galois.h"
#include "ckks/keys.h"
#include "he/cipher.h"

namespace xehe::he {

namespace {

/// Size bound for inputs the caller knows nothing about.
constexpr std::size_t kSizeUnknownMax = 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

bool size_can_be(const ValueFacts &f, std::size_t s) {
    return f.size_min <= s && s <= f.size_max;
}

bool sizes_disjoint(const ValueFacts &a, const ValueFacts &b) {
    return a.size_max < b.size_min || b.size_max < a.size_min;
}

bool levels_disjoint(const ValueFacts &a, const ValueFacts &b) {
    return a.level_max < b.level_min || b.level_max < a.level_min;
}

/// True when no scale in `a`'s interval can pass the evaluators' gate
/// against any scale in `b`'s interval (a must-fail).  Point intervals
/// run the evaluators' own test on the same doubles.
bool scale_must_mismatch(const ValueFacts &a, const ValueFacts &b) {
    if (a.scale_exact() && b.scale_exact()) {
        return !ckks::scales_match(a.scale_lo, b.scale_lo);
    }
    return a.scale_hi < b.scale_lo * (1.0 - ckks::kScaleTolerance) ||
           a.scale_lo > b.scale_hi * (1.0 + ckks::kScaleTolerance);
}

/// Interval product that avoids 0 * inf = NaN at the unknown extremes.
double interval_mul(double x, double y) {
    return (x == 0.0 || y == 0.0) ? 0.0 : x * y;
}

/// Level facts of a result conditional on the op having succeeded:
/// dropping one prime requires the input to sit at >= 2.
std::size_t drop_min(std::size_t level_min) {
    return std::max<std::size_t>(level_min, 2) - 1;
}

/// The kOpTable columns the fact walk tests per node, packed into a
/// ten-byte row derived from kOpTable (not restated): the admission walk
/// measured slower reading them from the wide row.
struct WalkRow {
    Operand second;
    uint8_t size_in;
    uint8_t size_out;
    LevelRule level;
    ScaleRule scale;
    KeyNeed key;
    bool align;
    bool mult;
    bool imm;
    bool scale_gate;

    bool binary() const noexcept { return second != Operand::None; }
};

constexpr auto kWalkRows = [] {
    std::array<WalkRow, std::size(kOpTable)> rows{};
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const OpInfo &op = kOpTable[i];
        rows[i] = {op.second, op.size_in, op.size_out, op.level,
                   op.scale,  op.key,     op.align,    op.mult(),
                   op.imm,    op.scale_gate};
    }
    return rows;
}();

/// Out-of-line and cold: diagnostics are the exceptional path, and the
/// in-situ cost of an admission analyze (right after a compile evicted
/// everything) is mostly its i-cache footprint — string construction
/// inlined at every check site would double the walk's code size.
__attribute__((cold, noinline)) void
push_diag(std::vector<Diagnostic> &diags, Severity sev, DiagKind kind,
          uint32_t node, OpCode op, const char *msg) {
    diags.push_back(Diagnostic{sev, kind, node, op, msg});
}

/// Same, for the few messages that append a number.
__attribute__((cold, noinline)) void
push_diag_num(std::vector<Diagnostic> &diags, Severity sev, DiagKind kind,
              uint32_t node, OpCode op, const char *msg, long long num) {
    diags.push_back(Diagnostic{sev, kind, node, op,
                               msg + std::to_string(num)});
}

}  // namespace

const char *diag_kind_name(DiagKind kind) {
    switch (kind) {
        case DiagKind::Malformed: return "Malformed";
        case DiagKind::OutputAliasesInput: return "OutputAliasesInput";
        case DiagKind::LevelMismatch: return "LevelMismatch";
        case DiagKind::LevelUnderflow: return "LevelUnderflow";
        case DiagKind::SizeMismatch: return "SizeMismatch";
        case DiagKind::ScaleMismatch: return "ScaleMismatch";
        case DiagKind::MissingKey: return "MissingKey";
        case DiagKind::MissingRotation: return "MissingRotation";
        case DiagKind::DeadNode: return "DeadNode";
        case DiagKind::OversizeCipher: return "OversizeCipher";
        case DiagKind::ScaleDrift: return "ScaleDrift";
        case DiagKind::DepthBudget: return "DepthBudget";
    }
    return "Unknown";
}

InputFacts facts_of(const Cipher &cipher) {
    return {cipher.size(), cipher.level(), cipher.scale()};
}

InputFacts planned_input_facts(const ckks::CkksContext &context,
                               std::size_t level, double scale) {
    const std::size_t max_level = context.max_level();
    return {2, level > 0 ? std::min(level, max_level) : max_level,
            scale > 0.0 ? scale
                        : static_cast<double>(
                              context.key_modulus()[max_level - 1].value())};
}

void AnalyzerOptions::set_keys(const ProgramKeys &keys) {
    relin_keys = keys.relin != nullptr;
    relin_levels = keys.relin ? keys.relin->key.keys.size() : 0;
    galois_keys = keys.galois != nullptr;
    std::vector<uint64_t> elts;
    if (keys.galois != nullptr) {
        elts.reserve(keys.galois->keys.size());
        for (const auto &[elt, key] : keys.galois->keys) {
            elts.push_back(elt);
        }
    }
    galois_elts = std::move(elts);
}

bool AnalysisReport::ok() const noexcept {
    return first_error() == nullptr;
}

const Diagnostic *AnalysisReport::first_error() const noexcept {
    for (const Diagnostic &d : diagnostics) {
        if (d.severity == Severity::Error) {
            return &d;
        }
    }
    return nullptr;
}

std::size_t AnalysisReport::error_count() const noexcept {
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics) {
        n += d.severity == Severity::Error;
    }
    return n;
}

std::size_t AnalysisReport::warning_count() const noexcept {
    return diagnostics.size() - error_count();
}

std::string AnalysisReport::summary() const {
    const Diagnostic *e = first_error();
    if (e == nullptr) {
        return {};
    }
    std::string s;
    if (e->node != Diagnostic::kProgram) {
        s = "node " + std::to_string(e->node) + " (" +
            op_code_name(e->op) + "): ";
    }
    return s + diag_kind_name(e->kind) + ": " + e->message;
}

ProgramAnalyzer::ProgramAnalyzer(const ckks::CkksContext &context,
                                 AnalyzerOptions options)
    : context_(&context), options_(std::move(options)) {}

AnalysisReport ProgramAnalyzer::analyze(const Program &p,
                                        std::size_t input_level,
                                        double input_scale) const {
    const InputFacts uniform{2, input_level, input_scale};
    return analyze_impl(p, std::span<const InputFacts>(&uniform, 1), true);
}

AnalysisReport ProgramAnalyzer::analyze(const Program &p) const {
    return analyze(p, planned_input_facts(*context_));
}

AnalysisReport ProgramAnalyzer::analyze(
    const Program &p, std::span<const InputFacts> inputs) const {
    return analyze_impl(p, inputs, false);
}

AnalysisReport ProgramAnalyzer::analyze(const Program &p,
                                        const InputFacts &uniform) const {
    return analyze_impl(p, std::span<const InputFacts>(&uniform, 1), true);
}

AnalysisReport ProgramAnalyzer::analyze_impl(
    const Program &p, std::span<const InputFacts> inputs,
    bool broadcast) const {
    AnalysisReport report;
    const auto diag = [&](Severity sev, DiagKind kind, uint32_t node,
                          OpCode op, std::string msg) {
        report.diagnostics.push_back(
            Diagnostic{sev, kind, node, op, std::move(msg)});
    };

    // Structural validation first: the fact walk indexes the value space,
    // which only validate() makes safe.  Callers whose program already
    // validated (wire decode) opt out via assume_validated.
    try {
        if (!options_.assume_validated) {
            p.validate();
        }
    } catch (const std::exception &e) {
        bool aliases = false;
        for (const uint32_t o : p.outputs) {
            aliases = aliases || o < p.num_inputs;
        }
        diag(Severity::Error,
             aliases ? DiagKind::OutputAliasesInput : DiagKind::Malformed,
             Diagnostic::kProgram, OpCode::Add, e.what());
        return report;
    }
    if (!broadcast && inputs.size() != p.num_inputs) {
        diag(Severity::Error, DiagKind::Malformed, Diagnostic::kProgram,
             OpCode::Add, "one InputFacts per program input required");
        return report;
    }

    const std::size_t max_level = context_->max_level();
    const uint32_t const_base = p.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(p.constants.size());
    const bool aligned = options_.assume_alignment;
    const ckks::GaloisTool galois_tool(context_->n());

    // Caller-supplied facts are size_t/double; clamp into the narrow
    // fact fields.  Sound: every in-range quantity (sizes <= 3, levels
    // <= the chain length) compares identically against the clamp.
    const auto clamp8 = [](std::size_t x) {
        return static_cast<uint8_t>(std::min<std::size_t>(x, 0xff));
    };

    // Sized once up front (32-byte facts keep the zero-fill cheap); the
    // walk then writes each slot in place, and operand references stay
    // stable with no per-node growth bookkeeping.
    std::vector<ValueFacts> &vals = report.values;
    vals.resize(p.value_count());
    for (uint32_t v = 0; v < p.num_inputs; ++v) {
        const InputFacts &in = inputs[broadcast ? 0 : v];
        ValueFacts &f = vals[v];
        f.size_min = in.size > 0 ? clamp8(in.size) : 1;
        f.size_max = in.size > 0 ? clamp8(in.size) : kSizeUnknownMax;
        f.level_min = in.level > 0 ? clamp8(in.level) : 1;
        f.level_max = in.level > 0 ? clamp8(in.level) : clamp8(max_level);
        f.scale_lo = in.scale > 0.0 ? in.scale : 0.0;
        f.scale_hi = in.scale > 0.0 ? in.scale : kInf;
    }
    for (std::size_t c = 0; c < p.constants.size(); ++c) {
        ValueFacts &f = vals[const_base + c];
        f.size_min = f.size_max = 1;
        f.level_min = f.level_max = clamp8(p.constants[c].rns);
        f.scale_lo = f.scale_hi = p.constants[c].scale;
    }
    // Liveness: which node results transitively feed an output.  Dead
    // nodes still *execute* (the raw interpreter runs every node), but
    // the compiler's DCE removes them, so in assume_alignment mode they
    // cannot fail at run time and only warrant a warning.  Marked
    // directly in the report's fact slots (resize zero-filled `live`),
    // so admission pays no side allocation.  Only two consumers exist —
    // DeadNode advisories and aligned-mode error suppression — and
    // errors_only drops the first, so there the backward pass waits for
    // the first error that needs it (rare on the accept path).  The
    // pass reads only static node structure and writes only the `live`
    // bits the forward walk never touches, so running it mid-walk is
    // safe.
    bool liveness_done = false;
    const auto compute_liveness = [&]() {
        if (liveness_done) {
            return;
        }
        liveness_done = true;
        for (const uint32_t o : p.outputs) {
            vals[o].live = true;
        }
        for (std::size_t i = p.nodes.size(); i-- > 0;) {
            if (!vals[node_base + i].live) {
                continue;
            }
            const Program::Node &n = p.nodes[i];
            vals[n.a].live = true;
            if (op_code_arity(n.op) == 2) {
                vals[n.b].live = true;
            }
        }
    };
    if (!options_.errors_only) {
        compute_liveness();
    }

    // Programs rotate by few distinct steps; memoize the last step ->
    // galois element mapping so the per-node cost is one compare.
    int rotate_step = std::numeric_limits<int>::min();
    uint64_t rotate_elt = 0;
    const auto elt_of = [&](int step) {
        if (step != rotate_step) {
            rotate_step = step;
            rotate_elt = galois_tool.elt_from_step(step);
        }
        return rotate_elt;
    };

    // No aligned-mode error depends on a scale, so an errors-only aligned
    // walk (the admission front door) derives no scale facts.
    const bool skip_scales = aligned && options_.errors_only;
    // Without key facts no key check can fail.
    const bool key_facts =
        options_.relin_keys.has_value() || options_.relin_levels.has_value() ||
        options_.galois_keys.has_value() || options_.galois_elts.has_value();
    const ValueFacts no_operand{};
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        const Program::Node &node = p.nodes[i];
        const uint32_t nid = static_cast<uint32_t>(i);
        const WalkRow info = kWalkRows[static_cast<uint8_t>(node.op)];
        const bool binary = info.binary();
        // References, not copies: operands strictly precede the result
        // slot (validate() guarantees node.a, node.b < node_base + i),
        // so writing `out` in place never aliases A or B.
        const ValueFacts &A = vals[node.a];
        const ValueFacts &B = binary ? vals[node.b] : no_operand;
        ValueFacts &out = vals[node_base + i];
        const auto live_now = [&]() {
            compute_liveness();
            return out.live;
        };

        // A must-fail that survives compilation: emitted in both modes
        // (in assume_alignment only for live nodes — DCE strips the rest).
        // All three emitters take const char* and defer the std::string
        // to the cold push_diag helpers, so the hot walk carries only a
        // test and a call per check site.
        const auto error = [&](DiagKind kind, const char *msg) {
            if (aligned && !live_now()) {
                return;
            }
            push_diag(report.diagnostics, Severity::Error, kind, nid,
                      node.op, msg);
        };
        const auto error_num = [&](DiagKind kind, const char *msg,
                                   long long num) {
            if (aligned && !live_now()) {
                return;
            }
            push_diag_num(report.diagnostics, Severity::Error, kind, nid,
                          node.op, msg, num);
        };
        // A must-fail the planner can repair (level/scale alignment,
        // strippable mod-switches): raw-interpretation mode only.
        const auto strict_error = [&](DiagKind kind, const char *msg) {
            if (aligned) {
                return;
            }
            push_diag(report.diagnostics, Severity::Error, kind, nid,
                      node.op, msg);
        };
        const auto strict_error_num = [&](DiagKind kind, const char *msg,
                                          long long num) {
            if (aligned) {
                return;
            }
            push_diag_num(report.diagnostics, Severity::Error, kind, nid,
                          node.op, msg, num);
        };
        const auto warn = [&](DiagKind kind, const char *msg) {
            if (options_.errors_only) {
                return;
            }
            push_diag(report.diagnostics, Severity::Warning, kind, nid,
                      node.op, msg);
        };

        if (!options_.errors_only) {
            if (!out.live) {
                warn(DiagKind::DeadNode, "result never reaches an output");
            }
            if (info.size_in == 0 &&
                (A.size_min >= 3 ||
                 (binary && !p.is_constant(node.b) && B.size_min >= 3))) {
                warn(DiagKind::OversizeCipher,
                     "size-3 ciphertext flows on without relinearization");
            }
        }

        // Default result facts: unary pass-through of the first operand.
        out.size_min = A.size_min;
        out.size_max = A.size_max;
        out.level_min = A.level_min;
        out.level_max = A.level_max;
        out.scale_lo = A.scale_lo;
        out.scale_hi = A.scale_hi;
        out.depth = 1 + std::max(A.depth, binary ? B.depth : 0);
        out.mult_depth =
            std::max(A.mult_depth, binary ? B.mult_depth : 0) + info.mult;

        // Binary cipher ops whose success implies equal operand levels:
        // intersect (strict) or planner-aligned min-combine.
        const auto combine_levels = [&]() {
            if (aligned) {
                out.level_min = std::min(A.level_min, B.level_min);
                out.level_max = std::min(A.level_max, B.level_max);
                return;
            }
            const std::size_t lo = std::max(A.level_min, B.level_min);
            const std::size_t hi = std::min(A.level_max, B.level_max);
            if (lo <= hi) {
                out.level_min = lo;
                out.level_max = hi;
            }
        };
        // Plain ops: success pins the cipher to the constant's level.
        // The planner can lower a cipher down to the constant but never
        // raise it, and a level-0 constant is unreachable.
        const auto check_plain_level = [&](const ckks::Plaintext &plain) {
            if (plain.n != context_->n()) {
                error(DiagKind::LevelMismatch,
                      "plaintext ring dimension mismatch");
            }
            if (aligned) {
                if (plain.rns < 1 || plain.rns > A.level_max) {
                    error_num(DiagKind::LevelMismatch,
                              "cipher can never reach the constant's "
                              "level ",
                              static_cast<long long>(plain.rns));
                }
            } else if (levels_disjoint(A, B)) {
                strict_error_num(DiagKind::LevelMismatch,
                                 "cipher level can never match the "
                                 "constant's level ",
                                 static_cast<long long>(plain.rns));
            }
            out.level_min = out.level_max =
                std::max<std::size_t>(plain.rns, 1);
        };

        // The op's own size need.
        if (info.size_in != 0) {
            if (!size_can_be(A, info.size_in) ||
                (info.second == Operand::Cipher &&
                 !size_can_be(B, info.size_in))) {
                error(DiagKind::SizeMismatch, op_info(node.op).violation);
            }
        }
        if (info.size_out != 0) {
            out.size_min = out.size_max = info.size_out;
        }

        // Operand relations, under the strict or the aligned interval
        // rules.
        switch (info.second) {
            case Operand::Plain:
                check_plain_level(p.constants[node.b - const_base]);
                if (info.scale_gate && !aligned &&
                    scale_must_mismatch(A, B)) {
                    strict_error(DiagKind::ScaleMismatch,
                                 "cipher scale can never match the "
                                 "constant's within 1e-6");
                }
                break;
            case Operand::Cipher:
                if (info.level == LevelRule::AddendAbove) {
                    // a + mod_switch(c): raw, the operands need only
                    // agree in size; the planner plans the fused tail
                    // for size 2 only.
                    if (aligned) {
                        if (!size_can_be(A, 2) || !size_can_be(B, 2)) {
                            error(DiagKind::SizeMismatch,
                                  "expects size-2 operands");
                        }
                    } else if (sizes_disjoint(A, B)) {
                        strict_error(DiagKind::SizeMismatch,
                                     "operand sizes can never agree");
                    }
                    if (!aligned && (B.level_max < A.level_min + 1 ||
                                     B.level_min > A.level_max + 1)) {
                        strict_error(DiagKind::LevelMismatch,
                                     "addend must sit exactly one level "
                                     "above the accumulator");
                    }
                    break;
                }
                if (info.size_in == 0) {
                    // No size need of its own: the sizes must agree.
                    if (sizes_disjoint(A, B)) {
                        error(DiagKind::SizeMismatch,
                              "operand sizes can never agree; relinearize "
                              "before adding");
                    }
                    const std::size_t smin = std::max(A.size_min, B.size_min);
                    const std::size_t smax = std::min(A.size_max, B.size_max);
                    if (smin <= smax) {
                        out.size_min = smin;
                        out.size_max = smax;
                    }
                }
                if (!aligned && levels_disjoint(A, B)) {
                    strict_error(DiagKind::LevelMismatch,
                                 "operand levels can never agree");
                }
                combine_levels();
                if (info.scale_gate) {
                    if (aligned) {
                        // The planner may adopt either side's scale.
                        out.scale_lo = std::min(A.scale_lo, B.scale_lo);
                        out.scale_hi = std::max(A.scale_hi, B.scale_hi);
                    } else if (scale_must_mismatch(A, B)) {
                        strict_error(DiagKind::ScaleMismatch,
                                     "operand scales can never pass the "
                                     "evaluator's 1e-6 gate");
                    }
                }
                break;
            default: break;
        }

        // The level drop.  The planner may strip an alignment op
        // outright: its underflow is repairable, and in aligned mode its
        // level may not drop at all.
        if (info.level == LevelRule::Drop) {
            if (A.level_max < 2) {
                const char *msg = op_info(node.op).violation;
                if (info.align) {
                    strict_error(DiagKind::LevelUnderflow, msg);
                } else {
                    error(DiagKind::LevelUnderflow, msg);
                }
            }
            out.level_min = drop_min(A.level_min);
            out.level_max =
                aligned && info.align ? A.level_max : drop_min(A.level_max);
        }

        // Scale transfer.
        if (!skip_scales) {
            switch (info.scale) {
                case ScaleRule::Keep: break;
                case ScaleRule::Times:
                    out.scale_lo = interval_mul(A.scale_lo, B.scale_lo);
                    out.scale_hi = interval_mul(A.scale_hi, B.scale_hi);
                    break;
                case ScaleRule::Square:
                    out.scale_lo = interval_mul(A.scale_lo, A.scale_lo);
                    out.scale_hi = interval_mul(A.scale_hi, A.scale_hi);
                    break;
                case ScaleRule::DivPrime:
                    if (A.level_exact() && A.level_min >= 2 &&
                        std::size_t{A.level_min} - 1 <
                            context_->key_modulus().size()) {
                        const double q = static_cast<double>(
                            context_->key_modulus()[A.level_min - 1].value());
                        out.scale_lo = A.scale_lo / q;
                        out.scale_hi = A.scale_hi / q;
                    } else {
                        out.scale_lo = 0.0;
                        out.scale_hi = kInf;
                    }
                    if (options_.snap_scale > 0.0 && out.scale_exact() &&
                        out.scale_lo > 0.0) {
                        const double ratio = out.scale_lo / options_.snap_scale;
                        if (std::abs(ratio - 1.0) > options_.snap_tolerance &&
                            std::abs(1.0 / ratio - 1.0) >
                                options_.snap_tolerance) {
                            warn(DiagKind::ScaleDrift,
                                 "rescale result drifts outside the snap "
                                 "range of the session scale");
                        }
                    }
                    break;
                case ScaleRule::Adopt:
                    // AdoptScale sets the ref's scale outright; ModSwitchAdopt
                    // (Backend::mod_switch) adopts it only when it is > 0.
                    if (node.op == OpCode::AdoptScale ||
                        (B.scale_exact() && B.scale_lo > 0.0)) {
                        out.scale_lo = B.scale_lo;
                        out.scale_hi = B.scale_hi;
                    } else if (!B.scale_exact()) {
                        out.scale_lo = std::min(A.scale_lo, B.scale_lo);
                        out.scale_hi = std::max(A.scale_hi, B.scale_hi);
                    }
                    break;
            }
        }

        // Keys.
        if (!key_facts) {
        } else if (info.key == KeyNeed::Relin) {
            if (options_.relin_keys == false) {
                error(DiagKind::MissingKey,
                      "program needs relinearization keys");
            } else if (options_.relin_levels.has_value() &&
                       A.level_min > *options_.relin_levels) {
                error_num(DiagKind::MissingKey,
                          "relinearization key too short for level ",
                          A.level_min);
            }
        } else if (info.key == KeyNeed::Galois) {
            if (options_.galois_keys == false) {
                error(DiagKind::MissingKey, "program needs galois keys");
            } else if (options_.galois_elts.has_value()) {
                const auto &elts = *options_.galois_elts;
                if (info.imm) {
                    const uint64_t elt = elt_of(node.imm);
                    if (elt != 1 && std::find(elts.begin(), elts.end(),
                                              elt) == elts.end()) {
                        error_num(DiagKind::MissingRotation,
                                  "no galois key for rotation step ",
                                  node.imm);
                    }
                } else if (std::find(elts.begin(), elts.end(),
                                     galois_tool.conjugation_elt()) ==
                           elts.end()) {
                    error(DiagKind::MissingRotation,
                          "no galois key for conjugation");
                }
            }
        }
    }

    // Program-level facts and advisories.
    std::size_t input_level_max = 0;
    for (uint32_t v = 0; v < p.num_inputs; ++v) {
        input_level_max =
            std::max<std::size_t>(input_level_max, vals[v].level_max);
    }
    for (const uint32_t o : p.outputs) {
        const ValueFacts &f = vals[o];
        report.mult_depth =
            std::max<std::size_t>(report.mult_depth, f.mult_depth);
        if (!options_.errors_only && f.size_min >= 3 && o >= node_base) {
            diag(Severity::Warning, DiagKind::OversizeCipher,
                 o - node_base, p.nodes[o - node_base].op,
                 "program output is an unrelinearized size-3 ciphertext");
        }
    }
    // Each cipher multiply needs one rescale to hold the scale; the
    // chain can rescale at most (input level - 1) times.
    if (!options_.errors_only && p.num_inputs > 0 && input_level_max >= 1 &&
        report.mult_depth > input_level_max - 1) {
        diag(Severity::Warning, DiagKind::DepthBudget, Diagnostic::kProgram,
             OpCode::Add,
             "multiplicative depth " + std::to_string(report.mult_depth) +
                 " exceeds the level budget (" +
                 std::to_string(input_level_max - 1) +
                 " rescales available)");
    }
    return report;
}

}  // namespace xehe::he
