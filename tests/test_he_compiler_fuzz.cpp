// he::ProgramCompiler randomized differential fuzz: a seeded,
// feasibility-tracked random-DAG generator produces raw-executable
// programs (operand sizes, levels and scales tracked symbolically so
// every emitted op satisfies the backends' preconditions), and every
// program is compiled and checked against its raw interpretation —
// decode-equal always, bit-identical whenever the planner changed
// nothing (PassReport::bit_exact()), GPU-vs-host agreement on a rotating
// subset of seeds, and deterministic generation and compilation (same
// seed, same bytes).  Runs under the ASan/UBSan CI matrix like the rest
// of the suite.
#include "test_common.h"

#include <cstring>

#include "he/analyze.h"
#include "he/compiler.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

void expect_bit_identical(const ckks::Ciphertext &x,
                          const ckks::Ciphertext &y, const char *what) {
    ASSERT_EQ(x.size, y.size) << what;
    ASSERT_EQ(x.rns, y.rns) << what;
    EXPECT_DOUBLE_EQ(x.scale, y.scale) << what;
    EXPECT_EQ(x.data, y.data) << what;
}

/// Symbolic metadata the generator tracks per value so it only emits ops
/// the raw interpreter will accept.  The scale arithmetic mirrors the
/// backends' exactly (same double expressions), so the tracked scales
/// are bitwise what the interpreter will see.
struct VMeta {
    uint32_t index = 0;  ///< program value index
    std::size_t size = 2;
    std::size_t level = 0;
    double scale = 0.0;
    bool is_node = false;  ///< eligible as a program output
};

class Generator {
public:
    Generator(const CkksBench &host, uint64_t seed)
        : host_(&host), rng_(seed), num_inputs_(2 + rng_() % 3),
          builder_(num_inputs_) {}

    he::Program run() {
        const ckks::CkksContext &ctx = host_->context;
        base_ = static_cast<double>(
            ctx.key_modulus()[ctx.max_level() - 1].value());
        // Constants must all be declared before the first node, so the
        // pool is fixed up front: per level, one addend encoded at the
        // input scale and one scale-preserving multiplier at scale 1.
        for (std::size_t level = 1; level <= ctx.max_level(); ++level) {
            const double addend = static_cast<double>(rng_() % 7) * 0.125;
            add_consts_.push_back(builder_.constant(
                host_->encoder.encode(addend, base_, level)));
            const double factor = 1.0 + static_cast<double>(rng_() % 3);
            mul_consts_.push_back(builder_.constant(
                host_->encoder.encode(factor, 1.0, level)));
        }
        for (std::size_t i = 0; i < num_inputs_; ++i) {
            values_.push_back({static_cast<uint32_t>(i), 2, ctx.max_level(),
                               base_, /*is_node=*/false});
        }

        const std::size_t target = 4 + rng_() % 13;  // up to 16 nodes
        std::size_t emitted = 0;
        std::size_t attempts = 0;
        while (emitted < target && attempts < target * 20) {
            ++attempts;
            if (try_emit()) {
                ++emitted;
            }
        }

        // Outputs: one or two node values (occasionally the same one
        // twice — duplicate outputs are defined behavior).
        std::vector<uint32_t> nodes;
        for (const auto &v : values_) {
            if (v.is_node) {
                nodes.push_back(v.index);
            }
        }
        if (nodes.empty()) {
            const VMeta a = values_[0];
            push(builder_.negate({a.index}).index, a.size, a.level,
                 a.scale);
            nodes.push_back(values_.back().index);
        }
        const uint32_t out1 = nodes[rng_() % nodes.size()];
        builder_.output({out1});
        if (rng_() % 2 == 0) {
            const uint32_t out2 =
                rng_() % 8 == 0 ? out1 : nodes[rng_() % nodes.size()];
            builder_.output({out2});
        }
        return builder_.build();
    }

private:
    bool scales_close(double a, double b, double tol) const {
        return std::abs(a / b - 1.0) < tol;
    }

    VMeta pick() { return values_[rng_() % values_.size()]; }

    /// Coefficient headroom: scaled values must stay well inside the
    /// level's modulus product, and above encoding granularity.
    bool scale_fits(double scale, std::size_t level) const {
        double budget = 0.0;
        for (std::size_t i = 0; i < level; ++i) {
            budget += std::log2(static_cast<double>(
                host_->context.key_modulus()[i].value()));
        }
        return std::log2(scale) + 8.0 < budget - 4.0 && scale >= 1024.0;
    }

    void push(uint32_t index, std::size_t size, std::size_t level,
              double scale) {
        values_.push_back({index, size, level, scale, /*is_node=*/true});
    }

    bool try_emit() {
        const ckks::CkksContext &ctx = host_->context;
        switch (rng_() % 12) {
            case 0: {  // Add / Sub
                const VMeta a = pick();
                const VMeta b = pick();
                if (a.size != b.size || a.level != b.level ||
                    !scales_close(a.scale, b.scale, 1e-7)) {
                    return false;
                }
                const auto v = rng_() % 2 == 0
                                   ? builder_.sub({a.index}, {b.index})
                                   : builder_.add({a.index}, {b.index});
                push(v.index, a.size, a.level, a.scale);
                return true;
            }
            case 1: {  // Negate
                const VMeta a = pick();
                push(builder_.negate({a.index}).index, a.size, a.level,
                     a.scale);
                return true;
            }
            case 2: {  // AddPlain (pool constant at the input scale)
                const VMeta a = pick();
                if (a.scale != base_) {  // must match bitwise
                    return false;
                }
                push(builder_.add_plain({a.index},
                                        add_consts_[a.level - 1]).index,
                     a.size, a.level, a.scale);
                return true;
            }
            case 3: {  // MultiplyPlain (scale-preserving: plain scale 1)
                const VMeta a = pick();
                if (!scale_fits(a.scale * 2.0, a.level)) {
                    return false;
                }
                push(builder_.multiply_plain(
                         {a.index}, mul_consts_[a.level - 1]).index,
                     a.size, a.level, a.scale * 1.0);
                return true;
            }
            case 4: {  // Multiply
                const VMeta a = pick();
                const VMeta b = pick();
                if (a.size != 2 || b.size != 2 || a.level != b.level ||
                    !scale_fits(a.scale * b.scale, a.level)) {
                    return false;
                }
                push(builder_.multiply({a.index}, {b.index}).index, 3,
                     a.level, a.scale * b.scale);
                return true;
            }
            case 5: {  // Square
                const VMeta a = pick();
                if (a.size != 2 ||
                    !scale_fits(a.scale * a.scale, a.level)) {
                    return false;
                }
                push(builder_.square({a.index}).index, 3, a.level,
                     a.scale * a.scale);
                return true;
            }
            case 6: {  // Relinearize
                const VMeta a = pick();
                if (a.size != 3) {
                    return false;
                }
                push(builder_.relinearize({a.index}).index, 2, a.level,
                     a.scale);
                return true;
            }
            case 7: {  // Rescale (only when the result keeps headroom)
                const VMeta a = pick();
                if (a.level < 2) {
                    return false;
                }
                const double q = static_cast<double>(
                    ctx.key_modulus()[a.level - 1].value());
                const double scale = a.scale / q;
                if (scale < 1024.0) {
                    return false;
                }
                push(builder_.rescale({a.index}).index, a.size,
                     a.level - 1, scale);
                return true;
            }
            case 8: {  // ModSwitch
                const VMeta a = pick();
                if (a.level < 2) {
                    return false;
                }
                push(builder_.mod_switch({a.index}).index, a.size,
                     a.level - 1, a.scale);
                return true;
            }
            case 9: {  // ModSwitchAdopt (tiny fudge: ref within 1e-3)
                const VMeta a = pick();
                const VMeta ref = pick();
                if (a.level < 2 ||
                    !scales_close(a.scale, ref.scale, 1e-3)) {
                    return false;
                }
                push(builder_.mod_switch_adopt({a.index},
                                               {ref.index}).index,
                     a.size, a.level - 1, ref.scale);
                return true;
            }
            case 10: {  // Rotate by 1
                const VMeta a = pick();
                if (a.size != 2) {
                    return false;
                }
                push(builder_.rotate({a.index}, 1).index, 2, a.level,
                     a.scale);
                return true;
            }
            case 11: {  // structural duplicate, for CSE to find
                const VMeta a = pick();
                push(builder_.negate({a.index}).index, a.size, a.level,
                     a.scale);
                push(builder_.negate({a.index}).index, a.size, a.level,
                     a.scale);
                return true;
            }
        }
        return false;
    }

    const CkksBench *host_;
    std::mt19937_64 rng_;
    std::size_t num_inputs_;
    he::ProgramBuilder builder_;
    double base_ = 0.0;
    std::vector<he::ProgramBuilder::Value> add_consts_;  ///< [level-1]
    std::vector<he::ProgramBuilder::Value> mul_consts_;  ///< [level-1]
    std::vector<VMeta> values_;
};

TEST(HeCompilerFuzz, RandomDagsCompileAndAgreeWithRawInterpretation) {
    CkksBench host(1024, 4);
    ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;
    const double input_scale = static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());

    he::HostBackend host_backend(host.context);
    core::GpuContext gpu(host.context, xgpu::device1(), core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend gpu_backend(gpu, evaluator);

    const he::ProgramCompiler compiler(host.context);

    std::size_t bit_exact_outputs = 0;
    std::size_t planned_outputs = 0;
    for (uint64_t seed = 1; seed <= 220; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const he::Program raw = Generator(host, seed).run();

        // Deterministic generation: the same seed rebuilds the same
        // program, byte for byte.
        const he::Program again = Generator(host, seed).run();
        ASSERT_TRUE(he::structurally_equal(raw, again));
        ASSERT_EQ(wire::serialize(raw), wire::serialize(again));

        // Deterministic compilation: compile twice, identical results.
        const auto compiled = compiler.compile(raw);
        const auto recompiled = compiler.compile(raw);
        ASSERT_TRUE(he::structurally_equal(compiled.program,
                                           recompiled.program));
        ASSERT_EQ(wire::serialize(compiled.program),
                  wire::serialize(recompiled.program));

        // Raw-valid by construction; the compiled form must run too.
        std::vector<he::Cipher> inputs;
        for (uint32_t i = 0; i < raw.num_inputs; ++i) {
            inputs.push_back(host_backend.upload(
                host.enc(host.values(seed * 16 + i, 0.5), input_scale)));
        }
        const auto raw_out =
            he::run_program(raw, host_backend, inputs, keys);
        const auto opt_out =
            he::run_program(compiled.program, host_backend, inputs, keys);
        ASSERT_EQ(raw_out.size(), opt_out.size());

        for (std::size_t o = 0; o < raw_out.size(); ++o) {
            const auto raw_ct = host_backend.download(raw_out[o]);
            const auto opt_ct = host_backend.download(opt_out[o]);
            if (compiled.report.bit_exact()) {
                ++bit_exact_outputs;
                expect_bit_identical(raw_ct, opt_ct, "bit-exact pipeline");
            } else {
                ++planned_outputs;
            }
            // Decode equality always: the planner preserves decoded
            // results even when it restructures alignment.
            EXPECT_LT(max_abs_diff(host.dec(raw_ct), host.dec(opt_ct)),
                      5e-2)
                << "output " << o;
        }

        // Cross-backend agreement on the compiled program, every 4th
        // seed (the GPU run costs more).
        if (seed % 4 == 0) {
            std::vector<he::Cipher> gpu_inputs;
            for (const auto &in : inputs) {
                gpu_inputs.push_back(
                    gpu_backend.upload(host_backend.download(in)));
            }
            const auto gpu_out = he::run_program(
                compiled.program, gpu_backend, gpu_inputs, keys);
            ASSERT_EQ(gpu_out.size(), opt_out.size());
            for (std::size_t o = 0; o < gpu_out.size(); ++o) {
                expect_bit_identical(host_backend.download(opt_out[o]),
                                     gpu_backend.download(gpu_out[o]),
                                     "gpu vs host compiled");
            }
        }
    }
    // The generator must exercise both regimes: programs the planner
    // leaves untouched and programs it restructures.
    EXPECT_GT(bit_exact_outputs, 0u);
    EXPECT_GT(planned_outputs, 0u);
}

/// Targeted breakages of a known-valid program: op swaps that shift
/// levels or sizes, unkeyed rotations, constant-level and constant-scale
/// perturbations, and operand rewires.  Each mutant stays a structurally
/// loadable Program (or fails validate(), which both the analyzer and
/// run_program reject), so the analyzer⇔interpreter verdicts must agree
/// on every one.
std::vector<he::Program> make_mutants(const he::Program &p,
                                      std::mt19937_64 &rng) {
    std::vector<he::Program> mutants;
    const uint32_t const_base = p.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(p.constants.size());

    const auto nodes_where = [&](auto pred) {
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < p.nodes.size(); ++i) {
            if (pred(p.nodes[i])) {
                idx.push_back(i);
            }
        }
        return idx;
    };
    const auto mutate_one = [&](const std::vector<std::size_t> &idx,
                                auto edit) {
        if (idx.empty()) {
            return;
        }
        he::Program m = p;
        edit(m.nodes[idx[rng() % idx.size()]]);
        mutants.push_back(std::move(m));
    };
    const auto is_op = [](he::OpCode op) {
        return [op](const he::Program::Node &n) { return n.op == op; };
    };

    // Rescale <-> ModSwitch: same level drop, different scale handling.
    mutate_one(nodes_where(is_op(he::OpCode::Rescale)),
               [](auto &n) { n.op = he::OpCode::ModSwitch; });
    mutate_one(nodes_where(is_op(he::OpCode::ModSwitch)),
               [](auto &n) { n.op = he::OpCode::Rescale; });
    // Rotations the key set does not cover.
    mutate_one(nodes_where(is_op(he::OpCode::Rotate)),
               [](auto &n) { n.imm = 3; });
    mutate_one(nodes_where(is_op(he::OpCode::Rotate)), [](auto &n) {
        n.op = he::OpCode::Conjugate;
        n.imm = 0;
    });
    // Multiply -> Add trips the 1e-6 scale gate on product-scale operands;
    // Relinearize -> Negate lets a size-3 ciphertext flow downstream.
    mutate_one(nodes_where(is_op(he::OpCode::Multiply)),
               [](auto &n) { n.op = he::OpCode::Add; });
    mutate_one(nodes_where(is_op(he::OpCode::Relinearize)),
               [](auto &n) { n.op = he::OpCode::Negate; });
    // Re-point a plain op at a random pool constant (usually a different
    // level or scale, both of which the evaluator gates).
    mutate_one(nodes_where([&](const he::Program::Node &n) {
                   return n.op == he::OpCode::AddPlain ||
                          n.op == he::OpCode::MultiplyPlain;
               }),
               [&](auto &n) {
                   n.b = const_base +
                         static_cast<uint32_t>(rng() % p.constants.size());
               });
    // Nudge a referenced constant's scale just past the 1e-6 gate.
    {
        const auto plain_nodes =
            nodes_where(is_op(he::OpCode::AddPlain));
        if (!plain_nodes.empty()) {
            he::Program m = p;
            const auto &node =
                m.nodes[plain_nodes[rng() % plain_nodes.size()]];
            m.constants[node.b - const_base].scale *= 1.0 + 0x1p-10;
            mutants.push_back(std::move(m));
        }
    }
    // Rewire a node's first operand to a random earlier cipher value.
    if (!p.nodes.empty()) {
        he::Program m = p;
        const std::size_t i = rng() % m.nodes.size();
        const std::size_t ciphers = p.num_inputs + i;
        const std::size_t r = rng() % ciphers;
        m.nodes[i].a = static_cast<uint32_t>(
            r < p.num_inputs ? r : node_base + (r - p.num_inputs));
        mutants.push_back(std::move(m));
    }
    return mutants;
}

TEST(HeCompilerFuzz, StrictAnalyzerMatchesRawInterpreterOnSeedsAndMutants) {
    CkksBench host(1024, 4);
    ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;
    const double input_scale = static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());

    he::HostBackend host_backend(host.context);

    he::AnalyzerOptions aopts;
    aopts.set_keys(keys);
    const he::ProgramAnalyzer analyzer(host.context, aopts);

    const auto interpreter_accepts =
        [&](const he::Program &p, std::span<const he::Cipher> inputs) {
            try {
                he::run_program(p, host_backend, inputs, keys);
                return true;
            } catch (const std::exception &) {
                return false;
            }
        };

    std::size_t accepted_mutants = 0;
    std::size_t rejected_mutants = 0;
    for (uint64_t seed = 1; seed <= 220; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const he::Program raw = Generator(host, seed).run();
        const std::vector<he::InputFacts> facts(
            raw.num_inputs,
            he::InputFacts{2, host.context.max_level(), input_scale});

        // Zero false rejects: the generator emits only raw-valid
        // programs, and with exact point facts strict analysis is
        // complete, so every seed must analyze clean.
        const he::AnalysisReport clean = analyzer.analyze(raw, facts);
        ASSERT_TRUE(clean.ok()) << clean.summary();

        std::vector<he::Cipher> inputs;
        for (uint32_t i = 0; i < raw.num_inputs; ++i) {
            inputs.push_back(host_backend.upload(
                host.enc(host.values(seed * 32 + i, 0.5), input_scale)));
        }
        ASSERT_TRUE(interpreter_accepts(raw, inputs));

        // Zero false accepts (and still zero false rejects): on every
        // mutant the static verdict must equal the runtime outcome.
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
        const auto mutants = make_mutants(raw, rng);
        for (std::size_t m = 0; m < mutants.size(); ++m) {
            const he::AnalysisReport report =
                analyzer.analyze(mutants[m], facts);
            const bool runs_clean =
                interpreter_accepts(mutants[m], inputs);
            ASSERT_EQ(report.ok(), runs_clean)
                << "mutant " << m << " of seed " << seed
                << (report.ok() ? " accepted but the interpreter threw"
                                : " rejected: " + report.summary());
            ++(runs_clean ? accepted_mutants : rejected_mutants);
        }
    }
    // The mutation pass must exercise both verdicts or the differential
    // is vacuous.
    EXPECT_GT(accepted_mutants, 0u);
    EXPECT_GT(rejected_mutants, 0u);
}

/// 64-bit FNV-1a over a stream of fields.
struct Fnv1a {
    uint64_t h = 0xcbf29ce484222325ull;

    void byte(uint8_t b) { h = (h ^ b) * 0x100000001b3ull; }
    void u64(uint64_t v) {
        for (int shift = 0; shift < 64; shift += 8) {
            byte(static_cast<uint8_t>(v >> shift));
        }
    }
    void f64(double d) {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        u64(bits);
    }
    void bytes(std::span<const uint8_t> data) {
        u64(data.size());
        for (const uint8_t b : data) {
            byte(b);
        }
    }
    void str(const std::string &s) {
        bytes({reinterpret_cast<const uint8_t *>(s.data()), s.size()});
    }
};

/// The compiled program's envelope re-framed as wire version 4: version
/// field 4 and the byte-serial FNV-1a of the payload as its checksum.
/// The hashes below were recorded over v4 envelopes; the payload, which
/// is all the compiler determines, is hashed unchanged, so the pin does
/// not move with the wire version or its checksum function.
std::vector<uint8_t> as_v4_envelope(std::vector<uint8_t> bytes) {
    bytes[4] = 4;
    bytes[5] = 0;
    Fnv1a payload;
    const std::size_t end = bytes.size() - 8;
    for (std::size_t i = wire::kHeaderBytes; i < end; ++i) {
        payload.byte(bytes[i]);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[end + i] = static_cast<uint8_t>(payload.h >> (8 * i));
    }
    return bytes;
}

void hash_stats(Fnv1a &h, const he::ProgramStats &s) {
    for (const std::size_t field :
         {s.nodes, s.constants, s.outputs, s.multiplies, s.plain_multiplies,
          s.key_switches, s.rescales, s.mod_switches, s.depth,
          s.levels_consumed, s.fusion_groups, s.planned_launches}) {
        h.u64(field);
    }
}

void hash_analysis(Fnv1a &h, const he::AnalysisReport &report) {
    h.u64(report.diagnostics.size());
    for (const he::Diagnostic &d : report.diagnostics) {
        h.u64(static_cast<uint64_t>(d.severity));
        h.u64(static_cast<uint64_t>(d.kind));
        h.u64(d.node);
        h.u64(static_cast<uint64_t>(d.op));
        h.str(d.message);
    }
    h.u64(report.values.size());
    for (const he::ValueFacts &f : report.values) {
        h.f64(f.scale_lo);
        h.f64(f.scale_hi);
        h.u64(f.depth);
        h.u64(f.mult_depth);
        h.u64(f.size_min);
        h.u64(f.size_max);
        h.u64(f.level_min);
        h.u64(f.level_max);
        h.u64(f.live);
    }
    h.u64(report.mult_depth);
}

/// Op-substitution mutants: every opcode once, written over a random
/// node with its operands re-picked to fit the new op's arity and operand
/// kinds, so the pinned hashes below also cover the ops the generator
/// never emits (ModSwitchAdd, AdoptScale, Conjugate, MultiplyAcc, ...).
std::vector<he::Program> substitute_ops(const he::Program &p,
                                        std::mt19937_64 &rng) {
    std::vector<he::Program> mutants;
    const uint32_t const_base = p.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(p.constants.size());
    for (uint8_t code = 0; code <= he::kMaxOpCode; ++code) {
        he::Program m = p;
        const std::size_t i = rng() % m.nodes.size();
        he::Program::Node &n = m.nodes[i];
        n.op = static_cast<he::OpCode>(code);
        n.imm = n.op == he::OpCode::Rotate        ? 1
                : n.op == he::OpCode::MultiplyAcc ? 2
                                                  : 0;
        if (he::op_code_arity(n.op) == 1) {
            n.b = 0;
        } else if (n.op == he::OpCode::AddPlain ||
                   n.op == he::OpCode::MultiplyPlain) {
            n.b = const_base +
                  static_cast<uint32_t>(rng() % p.constants.size());
        } else {
            const std::size_t r = rng() % (p.num_inputs + i);
            n.b = static_cast<uint32_t>(
                r < p.num_inputs ? r : node_base + (r - p.num_inputs));
        }
        mutants.push_back(std::move(m));
    }
    return mutants;
}

/// Pins what the compiler and the analyzer produce over the fuzz corpus
/// (the five routine programs, the 220 seed programs, their mutants and
/// their op substitutions): the compiled program's
/// wire bytes (or the compile error), the PassReport counters, the
/// before/after ProgramStats, and every AnalysisReport (diagnostics with
/// their text, per-value facts bit for bit) in strict and
/// assume_alignment mode, under exact, unknown and mixed input facts.  A
/// refactor of the op semantics must reproduce these hashes; they are
/// recorded, never re-derived from the code under test.
TEST(HeCompilerFuzz, PinnedCompileAndAnalysisHashes) {
    CkksBench host(1024, 4);
    ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;
    const double input_scale = static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());

    he::AnalyzerOptions strict_opts;
    strict_opts.set_keys(keys);
    he::AnalyzerOptions aligned_opts = strict_opts;
    aligned_opts.assume_alignment = true;
    const he::ProgramAnalyzer strict(host.context, strict_opts);
    const he::ProgramAnalyzer aligned(host.context, aligned_opts);
    const he::ProgramCompiler compiler(host.context);
    const he::InputFacts exact{2, host.context.max_level(), input_scale};
    const he::InputFacts unknown{};

    Fnv1a compile_hash, strict_hash, aligned_hash;
    std::size_t programs = 0;
    std::size_t compile_errors = 0;
    for (uint64_t seed = 0; seed <= 220; ++seed) {
        std::vector<he::Program> corpus;
        if (seed == 0) {
            corpus = {he::mul_lin_program(), he::mul_lin_rs_program(),
                      he::sqr_lin_rs_program(),
                      he::mul_lin_rs_modsw_add_program(),
                      he::rotate_program(1)};
        } else {
            corpus.push_back(Generator(host, seed).run());
            std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
            for (he::Program &m : make_mutants(corpus[0], rng)) {
                corpus.push_back(std::move(m));
            }
            std::mt19937_64 sub_rng(seed);
            for (he::Program &m : substitute_ops(corpus[0], sub_rng)) {
                corpus.push_back(std::move(m));
            }
        }
        for (const he::Program &p : corpus) {
            ++programs;
            try {
                const he::CompiledProgram c = compiler.compile(p);
                compile_hash.u64(1);
                compile_hash.bytes(as_v4_envelope(wire::serialize(c.program)));
                const he::PassReport &r = c.report;
                for (const std::size_t field :
                     {r.canonicalized, r.cse_merged, r.dce_removed,
                      r.constants_removed, r.plan_removed, r.plan_inserted,
                      r.fused_nodes}) {
                    compile_hash.u64(field);
                }
                hash_stats(compile_hash, c.before);
                hash_stats(compile_hash, c.after);
            } catch (const std::exception &e) {
                ++compile_errors;
                compile_hash.u64(0);
                compile_hash.str(e.what());
            }
            for (const he::InputFacts &facts : {exact, unknown}) {
                hash_analysis(strict_hash, strict.analyze(p, facts));
                hash_analysis(aligned_hash, aligned.analyze(p, facts));
            }
            // Per-input facts mixing exact and unknown sizes over distinct
            // exact scales, so interval (non-point) scale facts arise.
            std::vector<he::InputFacts> mixed;
            for (uint32_t i = 0; i < p.num_inputs; ++i) {
                mixed.push_back({i % 2 == 0 ? 2u : 0u, exact.level,
                                 input_scale * (1.0 + 0.25 * i)});
            }
            hash_analysis(strict_hash, strict.analyze(p, mixed));
            hash_analysis(aligned_hash, aligned.analyze(p, mixed));
        }
    }
    EXPECT_EQ(programs, 4860u);
    EXPECT_EQ(compile_errors, 323u);
    EXPECT_EQ(compile_hash.h, 0x179c424852c4c846ull);
    EXPECT_EQ(strict_hash.h, 0xae4dd67d9c6e06b6ull);
    EXPECT_EQ(aligned_hash.h, 0x9ef9cca3b3e81897ull);
}

}  // namespace
}  // namespace xehe::test
