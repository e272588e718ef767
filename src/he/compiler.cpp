#include "he/compiler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>

#include "he/analyze.h"
#include "obs/trace.h"

namespace xehe::he {

namespace {

[[noreturn]] void fail(std::size_t node, OpCode op, const std::string &what) {
    throw std::invalid_argument("he: compiler: node " + std::to_string(node) +
                                " (" + op_code_name(op) + "): " + what);
}

/// Symbolic ciphertext metadata.  The scale arithmetic mirrors the
/// backends bitwise (multiply: a.scale * b.scale; rescale: a.scale /
/// double(dropped prime); binary linear ops: the first operand's scale),
/// so scale-equality decisions match what the interpreter will see.
struct Meta {
    std::size_t size = 2;
    std::size_t level = 0;
    double scale = 0.0;
};

/// Metadata transfer of one op over already-final operands (kOpTable's
/// size, level and scale rules; `b` is the second operand's metadata,
/// constants included).
Meta step(OpCode op, const Meta &a, const Meta &b,
          const ckks::CkksContext &ctx) {
    const OpInfo &info = op_info(op);
    Meta out = a;
    if (info.size_out != 0) {
        out.size = info.size_out;
    }
    if (info.level == LevelRule::Drop) {
        out.level = a.level - 1;
    }
    switch (info.scale) {
        case ScaleRule::Keep: break;
        case ScaleRule::Times: out.scale = a.scale * b.scale; break;
        case ScaleRule::Square: out.scale = a.scale * a.scale; break;
        case ScaleRule::DivPrime:
            out.scale = a.scale / static_cast<double>(
                                      ctx.key_modulus()[a.level - 1].value());
            break;
        case ScaleRule::Adopt: out.scale = b.scale; break;
    }
    return out;
}

/// Best-effort metadata for every value of `p` (used by canonicalize to
/// prove Add operands share a scale).  Never throws: inconsistent
/// programs — the ones the planner exists to repair — get approximate
/// metadata, which only makes canonicalization more conservative.
std::vector<Meta> simulate(const Program &p, const ckks::CkksContext &ctx,
                           std::size_t input_level, double input_scale) {
    std::vector<Meta> meta(p.value_count());
    for (uint32_t v = 0; v < p.num_inputs; ++v) {
        meta[v] = {2, input_level, input_scale};
    }
    for (std::size_t c = 0; c < p.constants.size(); ++c) {
        meta[p.num_inputs + c] = {1, p.constants[c].rns,
                                  p.constants[c].scale};
    }
    const uint32_t node_base =
        p.num_inputs + static_cast<uint32_t>(p.constants.size());
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        const Program::Node &node = p.nodes[i];
        const Meta &a = meta[node.a];
        const Meta b =
            op_code_arity(node.op) == 2 ? meta[node.b] : Meta{};
        if (a.level == 0 ||
            (op_info(node.op).level == LevelRule::Drop && a.level < 2)) {
            meta[node_base + i] = a;  // bottomed out; keep going
            continue;
        }
        meta[node_base + i] = step(node.op, a, b, ctx);
    }
    return meta;
}

// ---------------------------------------------------------------------------
// canonicalize: commutative operand order + Multiply(x, x) -> Square
// ---------------------------------------------------------------------------

void canonicalize_pass(Program &p, const std::vector<Meta> &meta,
                       PassReport &report) {
    for (Program::Node &node : p.nodes) {
        if (node.op == OpCode::Multiply && node.a == node.b) {
            // Bit-identical on both backends: the host square IS
            // multiply(a, a), and the GPU square's doubled cross term
            // equals multiply's a0*b1 + a1*b0.
            node.op = OpCode::Square;
            node.b = 0;
            ++report.canonicalized;
        } else if (node.op == OpCode::Multiply && node.a > node.b) {
            // The modular product commutes bitwise, and the result scale
            // (a double product) commutes too.
            std::swap(node.a, node.b);
            ++report.canonicalized;
        } else if (node.op == OpCode::Add && node.a > node.b &&
                   !meta.empty()) {
            // Add adopts the FIRST operand's scale metadata, so the swap
            // is only bit-safe when both operand scales are provably the
            // same double.
            const Meta &a = meta[node.a], &b = meta[node.b];
            if (a.scale == b.scale && a.size == b.size &&
                a.level == b.level) {
                std::swap(node.a, node.b);
                ++report.canonicalized;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CSE: structurally identical nodes merge
// ---------------------------------------------------------------------------

Program cse_pass(const Program &p, PassReport &report) {
    Program out;
    out.num_inputs = p.num_inputs;
    out.constants = p.constants;
    const uint32_t node_base =
        p.num_inputs + static_cast<uint32_t>(p.constants.size());
    std::vector<uint32_t> remap(p.value_count());
    for (uint32_t v = 0; v < node_base; ++v) {
        remap[v] = v;
    }
    std::map<std::array<uint64_t, 2>, uint32_t> seen;
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        Program::Node node = p.nodes[i];
        node.a = remap[node.a];
        if (op_code_arity(node.op) == 2) {
            node.b = remap[node.b];
        }
        const std::array<uint64_t, 2> key = {
            (static_cast<uint64_t>(node.op) << 32) |
                static_cast<uint32_t>(node.imm),
            (static_cast<uint64_t>(node.a) << 32) | node.b};
        const auto [it, inserted] = seen.try_emplace(
            key, node_base + static_cast<uint32_t>(out.nodes.size()));
        if (inserted) {
            out.nodes.push_back(node);
        } else {
            ++report.cse_merged;
        }
        remap[node_base + i] = it->second;
    }
    out.outputs.reserve(p.outputs.size());
    for (const uint32_t o : p.outputs) {
        out.outputs.push_back(remap[o]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// DCE: drop nodes and constants no output transitively reads
// ---------------------------------------------------------------------------

Program dce_pass(const Program &p, PassReport &report) {
    const uint32_t const_base = p.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(p.constants.size());
    std::vector<char> live(p.value_count(), 0);
    for (const uint32_t o : p.outputs) {
        live[o] = 1;
    }
    for (std::size_t i = p.nodes.size(); i-- > 0;) {
        if (!live[node_base + i]) {
            continue;
        }
        live[p.nodes[i].a] = 1;
        if (op_code_arity(p.nodes[i].op) == 2) {
            live[p.nodes[i].b] = 1;
        }
    }

    Program out;
    out.num_inputs = p.num_inputs;
    std::vector<uint32_t> remap(p.value_count());
    for (uint32_t v = 0; v < const_base; ++v) {
        remap[v] = v;
    }
    for (std::size_t c = 0; c < p.constants.size(); ++c) {
        if (live[const_base + c]) {
            remap[const_base + c] =
                const_base + static_cast<uint32_t>(out.constants.size());
            out.constants.push_back(p.constants[c]);
        } else {
            ++report.constants_removed;
        }
    }
    const uint32_t out_node_base =
        const_base + static_cast<uint32_t>(out.constants.size());
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        if (!live[node_base + i]) {
            ++report.dce_removed;
            continue;
        }
        Program::Node node = p.nodes[i];
        node.a = remap[node.a];
        if (op_code_arity(node.op) == 2) {
            node.b = remap[node.b];
        }
        remap[node_base + i] =
            out_node_base + static_cast<uint32_t>(out.nodes.size());
        out.nodes.push_back(node);
    }
    out.outputs.reserve(p.outputs.size());
    for (const uint32_t o : p.outputs) {
        out.outputs.push_back(remap[o]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// plan: strip pure alignment, re-derive rescale/mod-switch placement
// ---------------------------------------------------------------------------

class Planner {
public:
    Planner(const Program &p, const ckks::CkksContext &ctx,
            const CompilerOptions &opt, PassReport &report)
        : in_(p), ctx_(ctx), opt_(opt), report_(report) {
        node_base_ = in_.num_inputs +
                     static_cast<uint32_t>(in_.constants.size());
    }

    Program run() {
        find_strippable();
        out_.num_inputs = in_.num_inputs;
        out_.constants = in_.constants;
        remap_.assign(in_.value_count(), 0);
        meta_.assign(node_base_, Meta{});
        const InputFacts input =
            planned_input_facts(ctx_, opt_.input_level, opt_.input_scale);
        for (uint32_t v = 0; v < in_.num_inputs; ++v) {
            remap_[v] = v;
            meta_[v] = {input.size, input.level, input.scale};
        }
        for (std::size_t c = 0; c < in_.constants.size(); ++c) {
            const uint32_t v = in_.num_inputs + static_cast<uint32_t>(c);
            remap_[v] = v;
            meta_[v] = {1, in_.constants[c].rns, in_.constants[c].scale};
        }
        for (std::size_t i = 0; i < in_.nodes.size(); ++i) {
            plan_node(i);
        }
        out_.outputs.reserve(in_.outputs.size());
        for (const uint32_t o : in_.outputs) {
            out_.outputs.push_back(remap_[o]);
        }
        return std::move(out_);
    }

private:
    /// An alignment node is strippable when nothing observes it except
    /// scale-checked linear ops (Add/Sub, where alignment is re-derived
    /// against the partner) or further strippable alignment nodes, and
    /// it is not itself an output.  Anything else — a Multiply or
    /// ModSwitchAdd operand, the ref side of an adopt, a Rescale input,
    /// an output — pins the node, because stripping there would change
    /// result metadata in ways no later repair re-establishes.
    void find_strippable() {
        strippable_.assign(in_.nodes.size(), 0);
        std::vector<char> pinned(in_.nodes.size(), 0);
        for (const uint32_t o : in_.outputs) {
            if (o >= node_base_) {
                pinned[o - node_base_] = 1;
            }
        }
        for (std::size_t i = in_.nodes.size(); i-- > 0;) {
            if (!op_info(in_.nodes[i].op).align || pinned[i]) {
                continue;
            }
            strippable_[i] = 1;
        }
        // Consumer check, forward: un-strip any align node consumed by
        // something other than Add/Sub or a strippable align node's
        // primary operand.  Iterate to a fixed point — un-stripping a
        // chain's head can pin the whole chain below it.
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t i = 0; i < in_.nodes.size(); ++i) {
                const Program::Node &node = in_.nodes[i];
                const OpInfo &info = op_info(node.op);
                const auto consume = [&](uint32_t v, bool safe) {
                    if (v < node_base_) {
                        return;
                    }
                    const std::size_t def = v - node_base_;
                    if (strippable_[def] && !safe) {
                        strippable_[def] = 0;
                        changed = true;
                    }
                };
                // Scale-gated cipher pairs (Add/Sub) re-derive alignment
                // against their partner.
                const bool linear =
                    info.scale_gate && info.second == Operand::Cipher;
                const bool align_primary = info.align && strippable_[i];
                consume(node.a, linear || align_primary);
                if (info.arity() == 2 && !in_.is_constant(node.b)) {
                    consume(node.b, linear);
                }
            }
        }
    }

    uint32_t emit(OpCode op, uint32_t a, uint32_t b, int32_t imm) {
        Program::Node node;
        node.op = op;
        node.a = a;
        node.b = op_code_arity(op) == 2 ? b : 0;
        node.imm = imm;
        const Meta mb = op_code_arity(op) == 2 ? meta_[node.b] : Meta{};
        meta_.push_back(step(op, meta_[a], mb, ctx_));
        out_.nodes.push_back(node);
        return node_base_ + static_cast<uint32_t>(out_.nodes.size()) - 1;
    }

    /// Mod-switches `v` down to `target` (one inserted node per level).
    uint32_t lower(uint32_t v, std::size_t target, std::size_t i,
                   OpCode op) {
        while (meta_[v].level > target) {
            if (meta_[v].level < 2) {
                fail(i, op, "cannot mod-switch below one prime");
            }
            v = emit(OpCode::ModSwitch, v, 0, 0);
            ++report_.plan_inserted;
        }
        return v;
    }

    /// Makes `v` adopt `ref`'s scale: folds into a ModSwitch this
    /// alignment episode just inserted (free — it becomes a
    /// ModSwitchAdopt), else emits an AdoptScale copy.
    uint32_t adopt(uint32_t v, uint32_t ref, std::size_t episode_start) {
        if (v >= node_base_) {
            const std::size_t def = v - node_base_;
            if (def >= episode_start &&
                out_.nodes[def].op == OpCode::ModSwitch) {
                out_.nodes[def].op = OpCode::ModSwitchAdopt;
                out_.nodes[def].b = ref;
                meta_[v].scale = meta_[ref].scale;
                return v;
            }
        }
        const uint32_t adopted = emit(OpCode::AdoptScale, v, ref, 0);
        ++report_.plan_inserted;
        return adopted;
    }

    void plan_node(std::size_t i) {
        const Program::Node &node = in_.nodes[i];
        const uint32_t old_value = node_base_ + static_cast<uint32_t>(i);
        if (strippable_[i]) {
            remap_[old_value] = remap_[node.a];
            ++report_.plan_removed;
            return;
        }

        const OpInfo &info = op_info(node.op);
        uint32_t x = remap_[node.a];
        uint32_t y = info.arity() == 2 ? remap_[node.b] : 0;
        const std::size_t episode = out_.nodes.size();
        // Size needs no repair can meet, checked on cipher pairs only
        // (the fused ModSwitchAdd tail is planned for size 2).
        if (node.op == OpCode::ModSwitchAdd) {
            if (meta_[x].size != 2 || meta_[y].size != 2) {
                fail(i, node.op, "expects size-2 operands");
            }
        } else if (info.second == Operand::Cipher && info.size_in != 0) {
            if (meta_[x].size != info.size_in ||
                meta_[y].size != info.size_in) {
                fail(i, node.op, info.violation);
            }
        } else if (info.second == Operand::Cipher &&
                   meta_[x].size != meta_[y].size) {
            fail(i, node.op, "operand sizes differ; relinearize before "
                             "adding");
        }
        // Level needs: a drop needs a prime to drop; data operands align
        // by lowering the higher side.
        if (info.level == LevelRule::Drop && meta_[x].level < 2) {
            fail(i, node.op, "cannot drop below one prime");
        }
        if (info.second == Operand::Plain) {
            if (meta_[x].level > meta_[y].level) {
                x = lower(x, meta_[y].level, i, node.op);
            } else if (meta_[x].level < meta_[y].level) {
                fail(i, node.op, "cipher sits below the constant's level");
            }
        } else if (info.level == LevelRule::AddendAbove) {
            if (meta_[y].level > meta_[x].level + 1) {
                y = lower(y, meta_[x].level + 1, i, node.op);
            } else if (meta_[y].level != meta_[x].level + 1) {
                fail(i, node.op, "addend must sit exactly one level "
                                 "above the accumulator");
            }
        } else if (info.second == Operand::Cipher) {
            if (meta_[x].level > meta_[y].level) {
                x = lower(x, meta_[y].level, i, node.op);
            } else if (meta_[y].level > meta_[x].level) {
                y = lower(y, meta_[x].level, i, node.op);
            }
        }
        // Scale gate: a cipher partner is repaired by adoption; a
        // plaintext's scale cannot be rewritten in place.
        if (info.scale_gate &&
            !ckks::scales_match(meta_[x].scale, meta_[y].scale)) {
            if (info.second == Operand::Plain) {
                fail(i, node.op, "cipher/constant scale gap");
            }
            const double ratio = meta_[x].scale / meta_[y].scale;
            if (std::abs(ratio - 1.0) > opt_.snap_tolerance &&
                std::abs(1.0 / ratio - 1.0) > opt_.snap_tolerance) {
                fail(i, node.op,
                     "operand scale gap (ratio " + std::to_string(ratio) +
                         ") exceeds the snap tolerance");
            }
            // Adopt on the side this episode lowered (its nodes are
            // fresh), else on the second operand.
            if (x >= node_base_ && x - node_base_ >= episode) {
                x = adopt(x, y, episode);
            } else {
                y = adopt(y, x, episode);
            }
        }
        remap_[old_value] = emit(node.op, x, y, node.imm);
    }

    const Program &in_;
    const ckks::CkksContext &ctx_;
    const CompilerOptions &opt_;
    PassReport &report_;
    Program out_;
    uint32_t node_base_ = 0;
    std::vector<char> strippable_;
    std::vector<uint32_t> remap_;
    std::vector<Meta> meta_;
};

// ---------------------------------------------------------------------------
// prefuse: annotate maximal runs of independent dyadic nodes
// ---------------------------------------------------------------------------

void prefuse_pass(Program &p, PassReport &report) {
    p.fusion_groups.clear();
    const uint32_t node_base =
        p.num_inputs + static_cast<uint32_t>(p.constants.size());
    const auto reads_run = [&](const Program::Node &node, std::size_t start,
                               std::size_t i) {
        const auto in_run = [&](uint32_t v) {
            return v >= node_base + start && v < node_base + i;
        };
        // The ref side of an adopt only reads metadata, but splitting on
        // it too keeps the rule simple: a group member never references
        // another member.
        return in_run(node.a) ||
               (op_code_arity(node.op) == 2 && in_run(node.b));
    };
    std::size_t start = 0;
    for (std::size_t i = 0; i <= p.nodes.size(); ++i) {
        const bool extend = i < p.nodes.size() &&
                            op_info(p.nodes[i].op).dyadic &&
                            !reads_run(p.nodes[i], start, i);
        if (extend) {
            continue;
        }
        if (i - start >= 2) {
            p.fusion_groups.push_back(
                {static_cast<uint32_t>(start), static_cast<uint32_t>(i)});
            report.fused_nodes += i - start;
        }
        start = (i < p.nodes.size() && op_info(p.nodes[i].op).dyadic)
                    ? i
                    : i + 1;
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// ProgramCompiler
// ---------------------------------------------------------------------------

ProgramCompiler::ProgramCompiler(CompilerOptions options)
    : options_(options) {}

ProgramCompiler::ProgramCompiler(const ckks::CkksContext &context,
                                 CompilerOptions options)
    : context_(&context), options_(options) {}

CompiledProgram ProgramCompiler::compile(const Program &program) const {
    obs::Span compile_span("compile.program", obs::Category::Compile);
    program.validate();
    CompiledProgram result;
    result.before = program.stats();

    Program p = program;
    p.fusion_groups.clear();
    if (options_.canonicalize) {
        obs::Span pass_span("compile.canonicalize", obs::Category::Compile);
        std::vector<Meta> meta;
        if (context_ != nullptr) {
            const InputFacts input = planned_input_facts(
                *context_, options_.input_level, options_.input_scale);
            meta = simulate(p, *context_, input.level, input.scale);
        }
        canonicalize_pass(p, meta, result.report);
    }
    if (options_.cse) {
        obs::Span pass_span("compile.cse", obs::Category::Compile);
        p = cse_pass(p, result.report);
    }
    if (options_.dce) {
        obs::Span pass_span("compile.dce", obs::Category::Compile);
        p = dce_pass(p, result.report);
    }
    if (options_.plan && context_ != nullptr) {
        obs::Span pass_span("compile.plan", obs::Category::Compile);
        p = Planner(p, *context_, options_, result.report).run();
        if (options_.cse) {
            // Re-derived alignment chains duplicate when one value
            // aligns for several consumers; merge them.
            p = cse_pass(p, result.report);
        }
    }
    if (options_.prefuse) {
        obs::Span pass_span("compile.prefuse", obs::Category::Compile);
        prefuse_pass(p, result.report);
    }
    p.validate();
    if (options_.self_verify && options_.plan && context_ != nullptr) {
        // Compiler-bug tripwire: the planner's contract is that its
        // output raw-interprets cleanly under the facts it planned for
        // (size left unknown — the planner never verifies input sizes),
        // so any must-fail node here is a pass pipeline defect, not a
        // user error.
        obs::Span pass_span("compile.verify", obs::Category::Compile);
        InputFacts facts = planned_input_facts(
            *context_, options_.input_level, options_.input_scale);
        facts.size = 0;
        const AnalysisReport verdict =
            ProgramAnalyzer(*context_).analyze(p, facts);
        if (!verdict.ok()) {
            throw std::logic_error(
                "he: compiler: self-verify failed, pass output must-fail: " +
                verdict.summary());
        }
    }
    result.after = p.stats();
    result.program = std::move(p);
    if (compile_span.active()) {
        compile_span.set_detail(
            std::to_string(result.before.nodes) + " -> " +
            std::to_string(result.after.nodes) + " nodes");
    }
    return result;
}

// ---------------------------------------------------------------------------
// CompileCache
// ---------------------------------------------------------------------------

std::string CompileCache::key(uint64_t scope, const CompilerOptions &options,
                              std::span<const uint8_t> program_bytes) {
    const uint64_t level = options.input_level;
    std::string key;
    key.reserve(4 * sizeof(uint64_t) + program_bytes.size());
    const auto append = [&key](const void *data, std::size_t size) {
        key.append(static_cast<const char *>(data), size);
    };
    append(&scope, sizeof(scope));
    append(&level, sizeof(level));
    append(&options.input_scale, sizeof(options.input_scale));
    append(&options.snap_tolerance, sizeof(options.snap_tolerance));
    append(program_bytes.data(), program_bytes.size());
    return key;
}

std::shared_ptr<const Program> CompileCache::get_or_compile(
    std::string key, const std::function<Program()> &miss) {
    if (auto it = entries_.find(key); it != entries_.end()) {
        ++hits_;
        return it->second;
    }
    auto compiled = std::make_shared<const Program>(miss());
    if (entries_.size() >= kCapacity) {
        entries_.clear();
    }
    entries_.emplace(std::move(key), compiled);
    return compiled;
}

}  // namespace xehe::he
