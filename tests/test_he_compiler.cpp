// he::ProgramCompiler — per-pass unit tests (canonicalize / CSE / DCE /
// plan / prefuse), the differential harness proving compiled programs
// bit-identical to raw interpretation on both backends, the planner's
// zero-fixup guarantee (a compiled program interprets with no Session
// multiply-by-one corrections), level recovery on over-switched circuits,
// validation of the new output edge cases, wire round trips of compiled
// programs (AdoptScale on the wire, corruption fuzz), and the Session /
// InferenceServer compile caches.
#include "test_common.h"

#include "he/compiler.h"
#include "he/session.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "xehe/routines.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using serve::InferenceServer;
using serve::Op;
using serve::Request;
using serve::ServerConfig;

struct CompilerRig {
    CkksBench host;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    explicit CompilerRig(std::size_t n = 1024, std::size_t levels = 4)
        : host(n, levels) {
        relin = host.keygen.create_relin_keys();
        const int steps[] = {1};
        galois = host.keygen.create_galois_keys(steps);
    }

    he::ProgramKeys keys() const {
        he::ProgramKeys k;
        k.relin = &relin;
        k.galois = &galois;
        return k;
    }
};

void expect_bit_identical(const ckks::Ciphertext &x,
                          const ckks::Ciphertext &y, const char *what) {
    ASSERT_EQ(x.size, y.size) << what;
    ASSERT_EQ(x.rns, y.rns) << what;
    EXPECT_DOUBLE_EQ(x.scale, y.scale) << what;
    EXPECT_EQ(x.data, y.data) << what;
}

/// Backend decorator counting the calls the planner promises to make
/// unnecessary: multiply_plain (the Session's multiply-by-one scale
/// correction) and set_scale.  Handles pass through unwrapped, so the
/// counted stream is exactly what the interpreter issues.
class CountingBackend final : public he::Backend {
public:
    explicit CountingBackend(he::Backend &inner) : inner_(&inner) {}

    std::size_t multiply_plains = 0;
    std::size_t set_scales = 0;
    std::size_t mod_switches = 0;

    const ckks::CkksContext &context() const noexcept override {
        return inner_->context();
    }
    const char *name() const noexcept override { return "counting"; }

    he::Cipher add(const he::Cipher &a, const he::Cipher &b) override {
        return inner_->add(a, b);
    }
    he::Cipher sub(const he::Cipher &a, const he::Cipher &b) override {
        return inner_->sub(a, b);
    }
    he::Cipher negate(const he::Cipher &a) override {
        return inner_->negate(a);
    }
    he::Cipher add_plain(const he::Cipher &a,
                         const ckks::Plaintext &p) override {
        return inner_->add_plain(a, p);
    }
    he::Cipher multiply_plain(const he::Cipher &a,
                              const ckks::Plaintext &p) override {
        ++multiply_plains;
        return inner_->multiply_plain(a, p);
    }
    he::Cipher multiply(const he::Cipher &a, const he::Cipher &b) override {
        return inner_->multiply(a, b);
    }
    he::Cipher square(const he::Cipher &a) override {
        return inner_->square(a);
    }
    he::Cipher multiply_acc(const he::Cipher &a, const he::Cipher &b,
                            uint32_t tiles) override {
        return inner_->multiply_acc(a, b, tiles);
    }
    he::Cipher relinearize(const he::Cipher &a,
                           const ckks::RelinKeys &keys) override {
        return inner_->relinearize(a, keys);
    }
    he::Cipher rescale(const he::Cipher &a, double snap_scale) override {
        return inner_->rescale(a, snap_scale);
    }
    he::Cipher mod_switch(const he::Cipher &a, double adopt_scale) override {
        ++mod_switches;
        return inner_->mod_switch(a, adopt_scale);
    }
    he::Cipher mod_switch_add(const he::Cipher &a,
                              const he::Cipher &c) override {
        return inner_->mod_switch_add(a, c);
    }
    he::Cipher rotate(const he::Cipher &a, int step,
                      const ckks::GaloisKeys &keys) override {
        return inner_->rotate(a, step, keys);
    }
    he::Cipher conjugate(const he::Cipher &a,
                         const ckks::GaloisKeys &keys) override {
        return inner_->conjugate(a, keys);
    }
    he::Cipher set_scale(const he::Cipher &a, double scale) override {
        ++set_scales;
        return inner_->set_scale(a, scale);
    }
    he::Cipher upload(const ckks::Ciphertext &ct) override {
        return inner_->upload(ct);
    }
    ckks::Ciphertext download(const he::Cipher &a) override {
        return inner_->download(a);
    }

private:
    he::Backend *inner_;
};

std::size_t count_op(const he::Program &p, he::OpCode op) {
    std::size_t n = 0;
    for (const auto &node : p.nodes) {
        n += node.op == op ? 1 : 0;
    }
    return n;
}

// ---------------------------------------------------------------------------
// canonicalize
// ---------------------------------------------------------------------------

TEST(HeCompiler, CanonicalizeRewritesSelfMultiplyToSquare) {
    CompilerRig rig;
    he::ProgramBuilder builder(1);
    builder.output(builder.rescale(builder.relinearize(
        builder.multiply(builder.input(0), builder.input(0)))));
    const he::Program raw = builder.build();

    const auto compiled = he::ProgramCompiler().compile(raw);
    EXPECT_EQ(compiled.report.canonicalized, 1u);
    EXPECT_EQ(count_op(compiled.program, he::OpCode::Multiply), 0u);
    EXPECT_EQ(count_op(compiled.program, he::OpCode::Square), 1u);
    EXPECT_TRUE(compiled.report.bit_exact());

    // The rewrite is bit-identical on both backends.
    const auto ct = rig.host.enc(rig.host.values(1));
    he::HostBackend host_backend(rig.host.context);
    core::GpuContext gpu(rig.host.context, xgpu::device1(),
                         core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend gpu_backend(gpu, evaluator);
    for (he::Backend *backend :
         {static_cast<he::Backend *>(&host_backend),
          static_cast<he::Backend *>(&gpu_backend)}) {
        SCOPED_TRACE(backend->name());
        const he::Cipher inputs[1] = {backend->upload(ct)};
        expect_bit_identical(
            backend->download(
                he::run_program(raw, *backend, inputs, rig.keys()).at(0)),
            backend->download(
                he::run_program(compiled.program, *backend, inputs,
                                rig.keys()).at(0)),
            "square rewrite");
    }
}

TEST(HeCompiler, CseMergesCommutativeDuplicates) {
    CompilerRig rig;
    // mul(a, b) and mul(b, a) are the same node after canonical operand
    // order; the adds over equal-scale inputs reorder and merge too.
    he::ProgramBuilder builder(2);
    const auto m1 = builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1)));
    const auto m2 = builder.relinearize(
        builder.multiply(builder.input(1), builder.input(0)));
    const auto s1 = builder.add(builder.input(0), builder.input(1));
    const auto s2 = builder.add(builder.input(1), builder.input(0));
    builder.output(builder.add(m1, m2));
    builder.output(builder.add(s1, s2));
    const he::Program raw = builder.build();

    const auto compiled =
        he::ProgramCompiler(rig.host.context).compile(raw);
    // mul+relin duplicates and the commuted add all merge.
    EXPECT_GE(compiled.report.cse_merged, 3u);
    EXPECT_EQ(count_op(compiled.program, he::OpCode::Multiply), 1u);
    EXPECT_EQ(count_op(compiled.program, he::OpCode::Relinearize), 1u);
    EXPECT_LT(compiled.program.nodes.size(), raw.nodes.size());

    // Merged duplicates compute bit-identically to the duplicated raw
    // program: add(x, y) over bit-equal x and y IS add(x, x).
    he::HostBackend backend(rig.host.context);
    const he::Cipher inputs[2] = {
        backend.upload(rig.host.enc(rig.host.values(2))),
        backend.upload(rig.host.enc(rig.host.values(3)))};
    const auto a = he::run_program(raw, backend, inputs, rig.keys());
    const auto b = he::run_program(compiled.program, backend, inputs,
                                   rig.keys());
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect_bit_identical(backend.download(a[i]), backend.download(b[i]),
                             "cse output");
    }
}

TEST(HeCompiler, DceDropsDeadNodesAndConstants) {
    CompilerRig rig;
    he::ProgramBuilder builder(1);
    const auto dead_const =
        builder.constant(rig.host.encoder.encode(0.5, kScale));
    builder.multiply_plain(builder.input(0), dead_const);  // dead
    builder.add(builder.input(0), builder.input(0));       // dead
    builder.output(builder.negate(builder.input(0)));
    const he::Program raw = builder.build();

    const auto compiled = he::ProgramCompiler().compile(raw);
    EXPECT_EQ(compiled.report.dce_removed, 2u);
    EXPECT_EQ(compiled.report.constants_removed, 1u);
    EXPECT_EQ(compiled.program.nodes.size(), 1u);
    EXPECT_TRUE(compiled.program.constants.empty());
    ASSERT_EQ(compiled.program.outputs.size(), 1u);

    he::HostBackend backend(rig.host.context);
    const he::Cipher inputs[1] = {
        backend.upload(rig.host.enc(rig.host.values(4)))};
    expect_bit_identical(
        backend.download(
            he::run_program(raw, backend, inputs).at(0)),
        backend.download(
            he::run_program(compiled.program, backend, inputs).at(0)),
        "dce output");
}

// ---------------------------------------------------------------------------
// plan
// ---------------------------------------------------------------------------

/// The session-default scale: the value of the context's last data prime,
/// so a rescale of a squared-scale product lands back on it exactly.
double session_scale(const CkksBench &host) {
    return static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());
}

TEST(HeCompiler, PlannerRepairsLooseCircuitWithZeroFixupCalls) {
    CompilerRig rig;
    const double scale = session_scale(rig.host);
    // add(rescale(relin(a*b)), b): the operands sit at different levels —
    // raw interpretation throws, the managed Session would repair with
    // alignment calls.  The compiled program must run raw, with zero
    // multiply-by-one corrections.
    he::ProgramBuilder builder(2);
    const auto prod = builder.rescale(builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1))));
    builder.output(builder.add(prod, builder.input(1)));
    const he::Program raw = builder.build();

    he::HostBackend host_backend(rig.host.context);
    const auto va = rig.host.values(5);
    const auto vb = rig.host.values(6);
    const he::Cipher inputs[2] = {
        host_backend.upload(rig.host.enc(va, scale)),
        host_backend.upload(rig.host.enc(vb, scale))};
    EXPECT_THROW(he::run_program(raw, host_backend, inputs, rig.keys()),
                 std::invalid_argument);

    he::CompilerOptions copts;
    copts.input_scale = scale;
    const auto compiled =
        he::ProgramCompiler(rig.host.context, copts).compile(raw);
    EXPECT_GE(compiled.report.plan_inserted, 1u);
    EXPECT_EQ(compiled.after.plain_multiplies, 0u);
    EXPECT_FALSE(compiled.report.bit_exact());

    CountingBackend counting(host_backend);
    const auto outputs = he::run_program(compiled.program, counting, inputs,
                                         rig.keys());
    ASSERT_EQ(outputs.size(), 1u);
    EXPECT_EQ(counting.multiply_plains, 0u);

    const auto decoded =
        rig.host.dec(host_backend.download(outputs[0]));
    std::vector<complexd> expect(rig.host.encoder.slots());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        expect[i] = va[i] * vb[i] + vb[i];
    }
    expect_close(decoded, expect, 1e-3, "repaired circuit decode");
}

TEST(HeCompiler, PlannerRecoversOverSwitchedLevels) {
    CompilerRig rig;
    // Both operands mod-switched two levels down for no reason: the
    // planner strips the alignment and the compiled circuit consumes
    // strictly fewer levels.
    he::ProgramBuilder builder(2);
    const auto a2 = builder.mod_switch(builder.mod_switch(builder.input(0)));
    const auto b2 = builder.mod_switch(builder.mod_switch(builder.input(1)));
    builder.output(builder.add(a2, b2));
    const he::Program raw = builder.build();

    he::CompilerOptions copts;
    copts.input_scale = kScale;
    const auto compiled =
        he::ProgramCompiler(rig.host.context, copts).compile(raw);
    EXPECT_EQ(compiled.report.plan_removed, 4u);
    EXPECT_EQ(compiled.report.plan_inserted, 0u);
    EXPECT_EQ(compiled.before.levels_consumed, 2u);
    EXPECT_EQ(compiled.after.levels_consumed, 0u);
    EXPECT_EQ(compiled.program.nodes.size(), 1u);

    // Same decoded values, two levels higher.
    he::HostBackend backend(rig.host.context);
    const auto va = rig.host.values(7);
    const auto vb = rig.host.values(8);
    const he::Cipher inputs[2] = {backend.upload(rig.host.enc(va)),
                                  backend.upload(rig.host.enc(vb))};
    const auto raw_out = he::run_program(raw, backend, inputs).at(0);
    const auto opt_out =
        he::run_program(compiled.program, backend, inputs).at(0);
    EXPECT_EQ(backend.download(opt_out).rns,
              backend.download(raw_out).rns + 2);
    std::vector<complexd> expect(rig.host.encoder.slots());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        expect[i] = va[i] + vb[i];
    }
    expect_close(rig.host.dec(backend.download(raw_out)), expect, 1e-3,
                 "raw decode");
    expect_close(rig.host.dec(backend.download(opt_out)), expect, 1e-3,
                 "optimized decode");
}

TEST(HeCompiler, PlannerEmitsAdoptScaleWhenNoFreshModSwitchToFold) {
    CompilerRig rig;
    // multiply_plain by a scale-1.1 constant opens a 10% scale gap at the
    // add — within the snap tolerance, but with no fresh ModSwitch in the
    // alignment episode to fold into (the operands already share a
    // level), so the planner must emit an explicit AdoptScale copy.
    he::ProgramBuilder builder(2);
    const auto c = builder.constant(rig.host.encoder.encode(1.0, 1.1));
    const auto scaled = builder.multiply_plain(builder.input(0), c);
    builder.output(builder.add(scaled, builder.input(1)));
    const he::Program raw = builder.build();

    he::HostBackend host_backend(rig.host.context);
    const auto ct_a = rig.host.enc(rig.host.values(9));
    const auto ct_b = rig.host.enc(rig.host.values(10));
    {
        // Raw interpretation rejects the scale gap.
        const he::Cipher inputs[2] = {host_backend.upload(ct_a),
                                      host_backend.upload(ct_b)};
        EXPECT_THROW(he::run_program(raw, host_backend, inputs, rig.keys()),
                     std::invalid_argument);
    }

    he::CompilerOptions copts;
    copts.input_scale = kScale;
    const auto compiled =
        he::ProgramCompiler(rig.host.context, copts).compile(raw);
    EXPECT_EQ(count_op(compiled.program, he::OpCode::AdoptScale), 1u);

    // The repaired program runs raw on both backends, bit-identically.
    core::GpuContext gpu(rig.host.context, xgpu::device1(),
                         core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend gpu_backend(gpu, evaluator);
    const auto run = [&](he::Backend &backend) {
        const he::Cipher inputs[2] = {backend.upload(ct_a),
                                      backend.upload(ct_b)};
        auto outputs = he::run_program(compiled.program, backend, inputs,
                                       rig.keys());
        return backend.download(outputs.at(0));
    };
    expect_bit_identical(run(host_backend), run(gpu_backend),
                         "adopt-scale repair across backends");
}

TEST(HeCompiler, PlannerRoundTripsTheCanonicalAlignmentIdiom) {
    CompilerRig rig;
    const double scale = session_scale(rig.host);
    // add(rescale(relin(a*b)), mod_switch_adopt(multiply_plain(a, c), m)):
    // the planner strips the hand-written alignment and re-derives
    // exactly the same node (a level gap plus a snap-range scale gap
    // folds into one ModSwitchAdopt) — strip + repair is the identity on
    // well-aligned programs, so execution stays bit-identical.
    he::ProgramBuilder builder(2);
    const auto c = builder.constant(rig.host.encoder.encode(1.0, 1.1));
    const auto m = builder.rescale(builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1))));
    const auto scaled = builder.multiply_plain(builder.input(0), c);
    builder.output(builder.add(m, builder.mod_switch_adopt(scaled, m)));
    const he::Program raw = builder.build();

    he::CompilerOptions copts;
    copts.input_scale = scale;
    const auto compiled =
        he::ProgramCompiler(rig.host.context, copts).compile(raw);
    EXPECT_EQ(compiled.report.plan_removed, 1u);
    EXPECT_EQ(compiled.report.plan_inserted, 1u);
    EXPECT_TRUE(he::structurally_equal(compiled.program, raw));

    he::HostBackend backend(rig.host.context);
    const he::Cipher inputs[2] = {
        backend.upload(rig.host.enc(rig.host.values(11), scale)),
        backend.upload(rig.host.enc(rig.host.values(12), scale))};
    expect_bit_identical(
        backend.download(
            he::run_program(raw, backend, inputs, rig.keys()).at(0)),
        backend.download(he::run_program(compiled.program, backend, inputs,
                                         rig.keys()).at(0)),
        "alignment idiom round trip");
}

// ---------------------------------------------------------------------------
// the routine differential: compile is the identity on the five programs
// ---------------------------------------------------------------------------

/// A size violation on a unary op's operand is a typed user error from
/// the planner (std::invalid_argument naming the op's kOpTable
/// violation), never a self-verify trip (a plain std::logic_error).
void expect_typed_size_error(const CompilerRig &rig,
                             const he::Program &program,
                             const std::string &violation) {
    try {
        he::ProgramCompiler(rig.host.context).compile(program);
        ADD_FAILURE() << "compile accepted a size violation";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(violation), std::string::npos)
            << e.what();
    }
}

TEST(HeCompiler, PlannerRejectsSquareOfSizeThreeTyped) {
    CompilerRig rig;
    he::ProgramBuilder b(2);
    b.output(b.square(b.multiply(b.input(0), b.input(1))));
    expect_typed_size_error(rig, b.build(),
                            "square expects a size-2 operand");
}

TEST(HeCompiler, PlannerRejectsRotateOfSizeThreeTyped) {
    CompilerRig rig;
    he::ProgramBuilder b(2);
    b.output(b.rotate(b.multiply(b.input(0), b.input(1)), 1));
    expect_typed_size_error(rig, b.build(),
                            "rotate expects a size-2 ciphertext");
}

TEST(HeCompiler, PlannerRejectsRelinearizeOfSizeTwoTyped) {
    CompilerRig rig;
    he::ProgramBuilder b(2);
    b.output(b.relinearize(
        b.relinearize(b.multiply(b.input(0), b.input(1)))));
    expect_typed_size_error(rig, b.build(),
                            "relinearize expects a size-3 ciphertext");
}

TEST(HeCompiler, RoutineProgramsCompileToThemselves) {
    CompilerRig rig;
    he::CompilerOptions copts;
    copts.input_scale = kScale;
    const he::ProgramCompiler compiler(rig.host.context, copts);
    for (const core::Routine r : core::kAllRoutines) {
        SCOPED_TRACE(core::routine_name(r));
        const he::Program &canonical = core::routine_program(r);
        const auto compiled = compiler.compile(canonical);
        EXPECT_TRUE(he::structurally_equal(compiled.program, canonical));
        EXPECT_TRUE(compiled.report.bit_exact());
        EXPECT_EQ(compiled.report.cse_merged, 0u);
        EXPECT_EQ(compiled.report.dce_removed, 0u);
        // No fusion groups either: running the raw routine program (as
        // the harness, pool and server do) is running its compiled form.
        EXPECT_TRUE(compiled.program.fusion_groups.empty());
    }
}

TEST(HeCompiler, CompiledRoutinesBitIdenticalToRawOnBothBackends) {
    CompilerRig rig;
    const auto ct_a = rig.host.enc(rig.host.values(13));
    const auto ct_b = rig.host.enc(rig.host.values(14));
    const auto ct_c = rig.host.enc(rig.host.values(15));
    he::CompilerOptions copts;
    copts.input_scale = kScale;
    const he::ProgramCompiler compiler(rig.host.context, copts);

    he::HostBackend host_backend(rig.host.context);
    for (const bool fuse : {true, false}) {
        SCOPED_TRACE(fuse ? "fused" : "unfused");
        core::GpuOptions options;
        options.fuse_dyadic = fuse;
        core::GpuContext gpu(rig.host.context, xgpu::device1(), options);
        core::GpuEvaluator evaluator(gpu);
        he::GpuBackend gpu_backend(gpu, evaluator);
        for (he::Backend *backend :
             {static_cast<he::Backend *>(&host_backend),
              static_cast<he::Backend *>(&gpu_backend)}) {
            for (const core::Routine r : core::kAllRoutines) {
                SCOPED_TRACE(std::string(backend->name()) + "/" +
                             core::routine_name(r));
                const he::Program &raw = core::routine_program(r);
                const he::Program compiled = compiler.compile(raw).program;
                const he::Cipher inputs[3] = {backend->upload(ct_a),
                                              backend->upload(ct_b),
                                              backend->upload(ct_c)};
                const auto span = std::span<const he::Cipher>(inputs).first(
                    raw.num_inputs);
                expect_bit_identical(
                    backend->download(he::run_program(raw, *backend, span,
                                                      rig.keys()).at(0)),
                    backend->download(he::run_program(compiled, *backend,
                                                      span,
                                                      rig.keys()).at(0)),
                    "compiled routine");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// prefuse: pre-planned dyadic groups
// ---------------------------------------------------------------------------

TEST(HeCompiler, FusionGroupsCutLaunchesBitIdentically) {
    CompilerRig rig;
    // Two runs of mutually independent dyadic ops (the second reads the
    // first, which splits the runs).
    he::ProgramBuilder builder(2);
    const auto n0 = builder.add(builder.input(0), builder.input(1));
    const auto n1 = builder.sub(builder.input(0), builder.input(1));
    const auto n2 = builder.negate(builder.input(0));
    const auto n3 = builder.add(n0, n1);
    const auto n4 = builder.sub(n2, builder.input(1));
    builder.output(n3);
    builder.output(n4);
    const he::Program raw = builder.build();

    const auto compiled = he::ProgramCompiler().compile(raw);
    ASSERT_EQ(compiled.program.fusion_groups.size(), 2u);
    EXPECT_EQ(compiled.report.fused_nodes, 5u);
    EXPECT_EQ(compiled.after.planned_launches, 2u);
    EXPECT_EQ(compiled.after.fusion_groups, 2u);

    const auto ct_a = rig.host.enc(rig.host.values(16));
    const auto ct_b = rig.host.enc(rig.host.values(17));
    for (const bool fuse : {true, false}) {
        SCOPED_TRACE(fuse ? "fused" : "unfused");
        core::GpuOptions options;
        options.fuse_dyadic = fuse;
        core::GpuContext gpu(rig.host.context, xgpu::device1(), options);
        core::GpuEvaluator evaluator(gpu);
        he::GpuBackend backend(gpu, evaluator);
        const he::Cipher inputs[2] = {backend.upload(ct_a),
                                      backend.upload(ct_b)};
        auto &profiler = gpu.queue().profiler();

        const std::size_t before_raw = profiler.submissions();
        const auto raw_out = he::run_program(raw, backend, inputs);
        const std::size_t raw_subs = profiler.submissions() - before_raw;

        const std::size_t before_opt = profiler.submissions();
        const auto opt_out =
            he::run_program(compiled.program, backend, inputs);
        const std::size_t opt_subs = profiler.submissions() - before_opt;

        if (fuse) {
            // 5 standalone launches collapse into 2 grouped ones.
            EXPECT_LT(opt_subs, raw_subs);
        } else {
            EXPECT_EQ(opt_subs, raw_subs);
        }
        ASSERT_EQ(raw_out.size(), 2u);
        ASSERT_EQ(opt_out.size(), 2u);
        for (std::size_t i = 0; i < raw_out.size(); ++i) {
            expect_bit_identical(backend.download(raw_out[i]),
                                 backend.download(opt_out[i]),
                                 "grouped output");
        }
    }
}

// ---------------------------------------------------------------------------
// validation edge cases
// ---------------------------------------------------------------------------

TEST(HeCompiler, ValidationRejectsInputAsOutput) {
    he::Program p;
    p.num_inputs = 1;
    p.nodes.push_back({he::OpCode::Negate, 0, 0, 0});
    p.outputs.push_back(0);  // echoes the caller's input back
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(HeCompiler, DuplicateOutputsAreLegalAndShareTheHandle) {
    CompilerRig rig;
    he::ProgramBuilder builder(1);
    const auto n = builder.negate(builder.input(0));
    builder.output(n);
    builder.output(n);
    const he::Program program = builder.build();
    EXPECT_NO_THROW(program.validate());

    he::HostBackend backend(rig.host.context);
    const he::Cipher inputs[1] = {
        backend.upload(rig.host.enc(rig.host.values(18)))};
    const auto outputs = he::run_program(program, backend, inputs);
    ASSERT_EQ(outputs.size(), 2u);
    expect_bit_identical(backend.download(outputs[0]),
                         backend.download(outputs[1]), "duplicate output");

    // Round-trips on the wire, and survives compilation (CSE may merge
    // two identical output nodes into exactly this shape).
    const auto reloaded = he::load_program(wire::serialize(program),
                                           rig.host.context);
    EXPECT_EQ(reloaded.outputs, program.outputs);
    const auto compiled = he::ProgramCompiler().compile(program);
    EXPECT_EQ(compiled.program.outputs.size(), 2u);
}

TEST(HeCompiler, ValidationRejectsMalformedFusionGroups) {
    he::Program p;
    p.num_inputs = 2;
    p.nodes.push_back({he::OpCode::Add, 0, 1, 0});
    p.nodes.push_back({he::OpCode::Sub, 0, 1, 0});
    p.nodes.push_back({he::OpCode::Rotate, 2, 0, 1});
    p.outputs.push_back(4);
    EXPECT_NO_THROW(p.validate());

    // Out of range.
    p.fusion_groups = {{0, 4}};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    // Empty.
    p.fusion_groups = {{1, 1}};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    // Overlapping / unsorted.
    p.fusion_groups = {{0, 2}, {1, 2}};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    // Non-dyadic member.
    p.fusion_groups = {{1, 3}};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    // Well-formed.
    p.fusion_groups = {{0, 2}};
    EXPECT_NO_THROW(p.validate());
}

// ---------------------------------------------------------------------------
// wire: compiled programs (AdoptScale) round-trip and reject corruption
// ---------------------------------------------------------------------------

TEST(HeCompiler, CompiledProgramWireRoundTripAndCorruptionFuzz) {
    CompilerRig rig;
    // Compile the AdoptScale-producing circuit so the new opcode crosses
    // the wire (no format version bump).
    he::ProgramBuilder builder(2);
    const auto c = builder.constant(rig.host.encoder.encode(1.0, 1.1));
    const auto scaled = builder.multiply_plain(builder.input(0), c);
    const auto sum = builder.add(scaled, builder.input(1));
    builder.output(sum);
    builder.output(builder.negate(sum));
    he::CompilerOptions copts;
    copts.input_scale = kScale;
    const he::Program compiled =
        he::ProgramCompiler(rig.host.context, copts)
            .compile(builder.build())
            .program;
    ASSERT_EQ(count_op(compiled, he::OpCode::AdoptScale), 1u);

    const auto bytes = wire::serialize(compiled);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(compiled));
    const he::Program reloaded = he::load_program(bytes, rig.host.context);
    EXPECT_TRUE(he::structurally_equal(reloaded, compiled));
    // Fusion groups are transient: the wire does not carry them.
    EXPECT_TRUE(reloaded.fusion_groups.empty());

    he::HostBackend backend(rig.host.context);
    const he::Cipher inputs[2] = {
        backend.upload(rig.host.enc(rig.host.values(19))),
        backend.upload(rig.host.enc(rig.host.values(20)))};
    const auto a = he::run_program(compiled, backend, inputs, rig.keys());
    const auto b = he::run_program(reloaded, backend, inputs, rig.keys());
    ASSERT_EQ(a.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect_bit_identical(backend.download(a[i]), backend.download(b[i]),
                             "reloaded compiled program");
    }

    // Truncation and bit-flip fuzz on the compiled bytes.
    const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 257);
    for (std::size_t len = 0; len < bytes.size(); len += stride) {
        EXPECT_THROW(
            he::load_program(std::span<const uint8_t>(bytes.data(), len),
                             rig.host.context),
            wire::WireError)
            << "truncated to " << len;
    }
    std::vector<uint8_t> mutated = bytes;
    const std::size_t total_bits = bytes.size() * 8;
    for (std::size_t i = 0; i < 331; ++i) {
        const std::size_t bit = (i * 2654435761u) % total_bits;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_THROW(he::load_program(mutated, rig.host.context),
                     wire::WireError)
            << "bit flip at " << bit;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(HeCompiler, StatsReportCircuitShape) {
    const he::Program program = he::mul_lin_rs_modsw_add_program();
    const he::ProgramStats stats = program.stats();
    EXPECT_EQ(stats.nodes, program.nodes.size());
    EXPECT_EQ(stats.outputs, 1u);
    EXPECT_EQ(stats.multiplies, 1u);
    EXPECT_EQ(stats.key_switches, 1u);
    EXPECT_EQ(stats.rescales, 1u);
    EXPECT_EQ(stats.mod_switches, 1u);
    EXPECT_EQ(stats.depth, program.nodes.size());
    // Rescale drops one prime; the mod-switch-add's addend path drops one
    // on the same budget, not two.
    EXPECT_EQ(stats.levels_consumed, 1u);
    EXPECT_EQ(stats.fusion_groups, 0u);
    EXPECT_EQ(stats.planned_launches, program.nodes.size());

    // A matmul tile is one multiply, whatever its tile count.
    const he::ProgramStats tile = he::multiply_acc_program(4).stats();
    EXPECT_EQ(tile.nodes, 1u);
    EXPECT_EQ(tile.multiplies, 1u);
    EXPECT_EQ(tile.depth, 1u);
    EXPECT_EQ(tile.levels_consumed, 0u);
}

// ---------------------------------------------------------------------------
// the seams: Session cache and InferenceServer compile-on-admit
// ---------------------------------------------------------------------------

TEST(HeCompiler, SessionCompilesProgramsAndMatchesRawInterpretation) {
    CompilerRig rig;
    core::GpuContext gpu(rig.host.context, xgpu::device1(),
                         core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);

    he::ProgramBuilder builder(2);
    const auto prod = builder.rescale(builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1))));
    const auto rotated = builder.rotate(prod, 1);
    builder.output(builder.add(
        rotated, builder.mod_switch_adopt(builder.input(1), rotated)));
    const he::Program program = builder.build();

    const auto run_with = [&](bool compile) {
        he::GpuBackend backend(gpu, evaluator);
        he::SessionOptions options;
        options.compile_programs = compile;
        he::Session session(backend, options);
        const auto a = session.encrypt(
            std::vector<double>(rig.host.encoder.slots(), 0.25));
        const auto b = session.encrypt(
            std::vector<double>(rig.host.encoder.slots(), 0.5));
        const he::Cipher inputs[2] = {a, b};
        // Twice: the second run must come out of the compile cache with
        // the same bits.
        const auto first = session.run(program, inputs);
        const auto second = session.run(program, inputs);
        return std::pair(session.backend().download(first.at(0)),
                         session.backend().download(second.at(0)));
    };

    const auto [compiled_1, compiled_2] = run_with(true);
    const auto [raw_1, raw_2] = run_with(false);
    expect_bit_identical(compiled_1, compiled_2, "cache replay");
    // This circuit strips and re-derives to itself, so compiled and raw
    // interpretations are bit-identical end to end.
    expect_bit_identical(compiled_1, raw_1, "compiled vs raw session run");
    expect_bit_identical(raw_1, raw_2, "raw determinism");
}

TEST(HeCompiler, SessionCompilesEachProgramOnce) {
#if defined(XEHE_OBS_DISABLED)
    GTEST_SKIP() << "tracing compiled out (XEHE_OBS=OFF)";
#endif
    CompilerRig rig;
    core::GpuContext gpu(rig.host.context, xgpu::device1(),
                         core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend backend(gpu, evaluator);
    he::Session session(backend);
    const auto a = session.encrypt(
        std::vector<double>(rig.host.encoder.slots(), 0.25));
    const he::Cipher inputs[1] = {a};

    he::ProgramBuilder builder(1);
    builder.output(builder.rescale(
        builder.relinearize(builder.square(builder.input(0)))));
    const he::Program program = builder.build();

    // Restores the global recorder even when an assertion fails.
    struct Recorder {
        Recorder() { obs::TraceRecorder::instance().enable(1 << 12); }
        ~Recorder() {
            obs::TraceRecorder::instance().disable();
            obs::TraceRecorder::instance().clear();
        }
    } recorder;
    for (int run = 0; run < 3; ++run) {
        session.run(program, inputs);
    }
    std::size_t compiles = 0;
    for (const obs::SpanRecord &span :
         obs::TraceRecorder::instance().snapshot()) {
        compiles += span.name == "compile.program" ? 1 : 0;
    }
    EXPECT_EQ(compiles, 1u);
}

TEST(HeCompiler, CompileCacheKeysOnScopeAssumptionsAndBytes) {
    he::CompileCache cache;
    const std::vector<uint8_t> bytes = {1, 2, 3};
    const he::CompilerOptions base;
    std::size_t compiles = 0;
    const auto miss = [&] {
        ++compiles;
        return he::Program{};
    };

    const auto first = cache.get_or_compile(
        he::CompileCache::key(0, base, bytes), miss);
    const auto again = cache.get_or_compile(
        he::CompileCache::key(0, base, bytes), miss);
    EXPECT_EQ(first, again);
    EXPECT_EQ(compiles, 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // Each differing component is its own entry.
    he::CompilerOptions level = base;
    level.input_level = 2;
    he::CompilerOptions scale = base;
    scale.input_scale = -0.0;  // equal to 0.0, but not bit-equal
    he::CompilerOptions snap = base;
    snap.snap_tolerance = 0.5;
    const std::vector<uint8_t> other_bytes = {1, 2, 4};
    cache.get_or_compile(he::CompileCache::key(1, base, bytes), miss);
    cache.get_or_compile(he::CompileCache::key(0, level, bytes), miss);
    cache.get_or_compile(he::CompileCache::key(0, scale, bytes), miss);
    cache.get_or_compile(he::CompileCache::key(0, snap, bytes), miss);
    cache.get_or_compile(he::CompileCache::key(0, base, other_bytes), miss);
    EXPECT_EQ(compiles, 6u);
    EXPECT_EQ(cache.size(), 6u);
    EXPECT_EQ(cache.hits(), 1u);

    // A throwing miss inserts nothing, so the next lookup compiles again.
    const auto rejected_key = he::CompileCache::key(2, base, bytes);
    EXPECT_THROW(cache.get_or_compile(rejected_key,
                                      []() -> he::Program {
                                          throw std::invalid_argument("no");
                                      }),
                 std::invalid_argument);
    EXPECT_EQ(cache.size(), 6u);
    cache.get_or_compile(rejected_key, miss);
    EXPECT_EQ(compiles, 7u);

    // Bounded: distinct keys past the capacity never grow it beyond.
    for (uint64_t scope = 0; scope <= he::CompileCache::kCapacity; ++scope) {
        cache.get_or_compile(
            he::CompileCache::key(100 + scope, base, bytes), miss);
        ASSERT_LE(cache.size(), he::CompileCache::kCapacity);
    }
}

TEST(HeCompiler, ServerCompileCacheServesRepeatSubmissionsBitExact) {
    CompilerRig rig;
    const auto ct_a = rig.host.enc(rig.host.values(21));
    const auto ct_b = rig.host.enc(rig.host.values(22));

    he::ProgramBuilder builder(2);
    const auto prod = builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1)));
    builder.output(builder.add(builder.rotate(prod, 1),
                               builder.relinearize(builder.multiply(
                                   builder.input(0), builder.input(0)))));
    const he::Program circuit = builder.build();

    const auto make_request = [&] {
        Request req;
        req.session_id = 7;
        req.op = Op::Program;
        req.program = wire::serialize(circuit);
        req.inputs.push_back(wire::serialize(ct_a));
        req.inputs.push_back(wire::serialize(ct_b));
        return req;
    };

    InferenceServer server(rig.host.context, xgpu::device1(),
                           core::GpuOptions{}, ServerConfig{});
    server.set_keys(rig.relin, rig.galois);
    server.submit(wire::serialize(make_request()));
    server.submit(wire::serialize(make_request()));
    auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    ASSERT_TRUE(responses[0].ok) << responses[0].error;
    ASSERT_TRUE(responses[1].ok) << responses[1].error;
    EXPECT_EQ(server.program_cache_size(), 1u);
    EXPECT_EQ(server.program_cache_hits(), 1u);
    expect_bit_identical(
        wire::load_ciphertext(responses[0].result, rig.host.context),
        wire::load_ciphertext(responses[1].result, rig.host.context),
        "repeat submission");

    // Raw interpretation of the shipped circuit answers the same bytes
    // (this circuit is already in compiled normal form up to the Square
    // strength reduction, which is itself bit-exact).
    he::HostBackend raw(rig.host.context);
    const he::Cipher raw_inputs[2] = {raw.upload(ct_a), raw.upload(ct_b)};
    expect_bit_identical(
        raw.download(
            he::run_program(circuit, raw, raw_inputs, rig.keys()).front()),
        wire::load_ciphertext(responses[0].result, rig.host.context),
        "compiled server vs raw interpretation");
}

TEST(HeCompiler, StaticallyRejectedProgramsNeverOccupyTheCompileCache) {
    CompilerRig rig;
    const auto ct_a = rig.host.enc(rig.host.values(31));
    const auto ct_b = rig.host.enc(rig.host.values(32));

    he::ProgramBuilder good_builder(2);
    good_builder.output(good_builder.relinearize(good_builder.multiply(
        good_builder.input(0), good_builder.input(1))));
    const he::Program good = good_builder.build();

    // One rescale past the modulus chain: at the admission level (the
    // context max) the fourth rescale provably underflows, so the gate
    // must reject before the compiler or its cache are touched.
    he::ProgramBuilder bad_builder(1);
    auto chain = bad_builder.input(0);
    for (std::size_t i = 0; i < rig.host.context.max_level(); ++i) {
        chain = bad_builder.rescale(chain);
    }
    bad_builder.output(chain);
    const he::Program bad = bad_builder.build();

    const auto make_request = [&](const he::Program &circuit,
                                  uint64_t session) {
        Request req;
        req.session_id = session;
        req.op = Op::Program;
        req.program = wire::serialize(circuit);
        req.inputs.push_back(wire::serialize(ct_a));
        if (circuit.num_inputs == 2) {
            req.inputs.push_back(wire::serialize(ct_b));
        }
        return req;
    };

    InferenceServer server(rig.host.context, xgpu::device1(),
                           core::GpuOptions{}, ServerConfig{});
    server.set_keys(rig.relin, rig.galois);
    server.submit(wire::serialize(make_request(good, 7)));
    auto warm = server.run();
    ASSERT_EQ(warm.size(), 1u);
    ASSERT_TRUE(warm[0].ok) << warm[0].error;
    ASSERT_EQ(server.program_cache_size(), 1u);

    server.submit(wire::serialize(make_request(bad, 8)));
    auto rejected = server.run();
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_FALSE(rejected[0].ok);
    EXPECT_EQ(rejected[0].code, serve::Status::InvalidProgram);
    EXPECT_EQ(rejected[0].session_id, 8u);
    EXPECT_NE(rejected[0].error.find("LevelUnderflow"), std::string::npos)
        << rejected[0].error;
    // The rejection left the compile-on-admit cache exactly as it was
    // and is accounted as a typed failure, not an overload.
    EXPECT_EQ(server.program_cache_size(), 1u);
    const auto stats = server.stats();
    EXPECT_EQ(stats.invalid_programs, 1u);
    EXPECT_GE(stats.failed, 1u);
    EXPECT_EQ(stats.overloaded, 0u);
}

}  // namespace
}  // namespace xehe::test
