// he::ProgramAnalyzer — unit coverage of the static verifier: every
// diagnostic kind fires on a minimal circuit that provokes it, strict and
// assume_alignment modes disagree exactly where the compiler's planner
// can repair (level/scale alignment, dead nodes), unknown input facts
// stay permissive, canonical routine programs analyze clean, and the
// Session::run admission gate throws typed he::ProgramRejected (with the
// opt-out falling through to the runtime fault).
#include "test_common.h"

#include <bit>

#include "he/analyze.h"
#include "he/session.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using he::AnalysisReport;
using he::AnalyzerOptions;
using he::DiagKind;
using he::Diagnostic;
using he::InputFacts;
using he::ProgramAnalyzer;
using he::ProgramBuilder;
using he::Severity;

/// Context + interpreter keys (relin, galois for step 1 only — no
/// conjugation key), mirroring the compiler/fuzz rigs.
struct AnalyzeRig {
    CkksBench bench;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    AnalyzeRig() : bench(1024, 4) {
        relin = bench.keygen.create_relin_keys();
        const int steps[] = {1};
        galois = bench.keygen.create_galois_keys(steps);
    }

    const ckks::CkksContext &context() const { return bench.context; }

    /// The last data prime — the planner-default input scale.
    double base_scale() const {
        return static_cast<double>(
            context().key_modulus()[context().max_level() - 1].value());
    }

    he::ProgramKeys keys() const {
        he::ProgramKeys k;
        k.relin = &relin;
        k.galois = &galois;
        return k;
    }

    AnalyzerOptions keyed_options(bool aligned = false) const {
        AnalyzerOptions opts;
        opts.assume_alignment = aligned;
        opts.set_keys(keys());
        return opts;
    }
};

const Diagnostic *find_kind(const AnalysisReport &report, DiagKind kind) {
    for (const Diagnostic &d : report.diagnostics) {
        if (d.kind == kind) {
            return &d;
        }
    }
    return nullptr;
}

bool has_kind(const AnalysisReport &report, DiagKind kind) {
    return find_kind(report, kind) != nullptr;
}

TEST(HeAnalyze, CanonicalProgramsAnalyzeCleanWithPlannerDefaults) {
    AnalyzeRig rig;
    const he::Program programs[] = {
        he::mul_lin_program(), he::mul_lin_rs_program(),
        he::sqr_lin_rs_program(), he::mul_lin_rs_modsw_add_program(),
        he::rotate_program(1)};
    for (bool aligned : {false, true}) {
        SCOPED_TRACE(aligned ? "aligned" : "strict");
        ProgramAnalyzer analyzer(rig.context(), rig.keyed_options(aligned));
        for (const he::Program &p : programs) {
            const AnalysisReport report = analyzer.analyze(p);
            EXPECT_TRUE(report.ok()) << report.summary();
            EXPECT_EQ(report.error_count(), 0u);
            EXPECT_EQ(report.values.size(), p.value_count());
        }
    }
    // mult_depth counts cipher multiplies on the deepest output path.
    ProgramAnalyzer analyzer(rig.context());
    EXPECT_EQ(analyzer.analyze(he::mul_lin_rs_program()).mult_depth, 1u);
    EXPECT_EQ(analyzer.analyze(he::rotate_program(1)).mult_depth, 0u);
}

TEST(HeAnalyze, RescaleAtLastLevelIsLevelUnderflowInBothModes) {
    AnalyzeRig rig;
    const he::Program p = he::mul_lin_rs_program();
    for (bool aligned : {false, true}) {
        SCOPED_TRACE(aligned ? "aligned" : "strict");
        ProgramAnalyzer analyzer(rig.context(), rig.keyed_options(aligned));
        const AnalysisReport report =
            analyzer.analyze(p, /*input_level=*/1, rig.base_scale());
        ASSERT_FALSE(report.ok());
        const Diagnostic *e = find_kind(report, DiagKind::LevelUnderflow);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->severity, Severity::Error);
        EXPECT_EQ(e->op, he::OpCode::Rescale);
        EXPECT_NE(e->node, Diagnostic::kProgram);
        EXPECT_NE(report.summary().find("LevelUnderflow"),
                  std::string::npos);
    }
}

TEST(HeAnalyze, SizeViolationsAreErrorsInBothModes) {
    AnalyzeRig rig;
    // multiply of a definitely-size-3 operand.
    ProgramBuilder mul3(2);
    const auto prod = mul3.multiply(mul3.input(0), mul3.input(1));
    mul3.output(mul3.multiply(prod, mul3.input(1)));
    const he::Program p_mul = mul3.build();
    // relinearize of a definitely-size-2 operand.
    ProgramBuilder relin2(1);
    relin2.output(relin2.relinearize(relin2.input(0)));
    const he::Program p_relin = relin2.build();

    for (bool aligned : {false, true}) {
        SCOPED_TRACE(aligned ? "aligned" : "strict");
        ProgramAnalyzer analyzer(rig.context(), rig.keyed_options(aligned));
        const AnalysisReport mul_report = analyzer.analyze(p_mul);
        ASSERT_FALSE(mul_report.ok());
        EXPECT_TRUE(has_kind(mul_report, DiagKind::SizeMismatch));

        const AnalysisReport relin_report = analyzer.analyze(p_relin);
        ASSERT_FALSE(relin_report.ok());
        EXPECT_TRUE(has_kind(relin_report, DiagKind::SizeMismatch));
    }
}

TEST(HeAnalyze, AddScaleMismatchIsStrictOnly) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.add(b.input(0), b.input(1)));
    const he::Program p = b.build();
    const double base = rig.base_scale();
    const std::vector<InputFacts> facts = {{2, 4, base},
                                           {2, 4, base * 1024.0}};

    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    const AnalysisReport strict_report = strict.analyze(p, facts);
    ASSERT_FALSE(strict_report.ok());
    EXPECT_TRUE(has_kind(strict_report, DiagKind::ScaleMismatch));

    // The planner repairs scale misalignment, so aligned mode accepts.
    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    EXPECT_TRUE(aligned.analyze(p, facts).ok());
}

TEST(HeAnalyze, AddLevelMismatchIsStrictOnly) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.add(b.input(0), b.input(1)));
    const he::Program p = b.build();
    const double base = rig.base_scale();
    const std::vector<InputFacts> facts = {{2, 4, base}, {2, 3, base}};

    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    const AnalysisReport strict_report = strict.analyze(p, facts);
    ASSERT_FALSE(strict_report.ok());
    EXPECT_TRUE(has_kind(strict_report, DiagKind::LevelMismatch));

    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    EXPECT_TRUE(aligned.analyze(p, facts).ok());
}

TEST(HeAnalyze, ModSwitchAddLevelRelationIsStrictOnly) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.mod_switch_add(b.input(0), b.input(1)));
    const he::Program p = b.build();
    const double base = rig.base_scale();
    // The addend must sit exactly one level above the accumulator.
    const std::vector<InputFacts> equal = {{2, 3, base}, {2, 3, base}};
    const std::vector<InputFacts> above = {{2, 3, base}, {2, 4, base}};

    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    const AnalysisReport bad = strict.analyze(p, equal);
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(has_kind(bad, DiagKind::LevelMismatch));
    EXPECT_TRUE(strict.analyze(p, above).ok());

    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    EXPECT_TRUE(aligned.analyze(p, equal).ok());
}

TEST(HeAnalyze, MissingKeysAreTypedErrors) {
    AnalyzeRig rig;
    ProgramBuilder mul(2);
    mul.output(mul.relinearize(mul.multiply(mul.input(0), mul.input(1))));
    const he::Program p_relin = mul.build();
    const he::Program p_rot = he::rotate_program(1);

    AnalyzerOptions no_relin;
    no_relin.relin_keys = false;
    const AnalysisReport r1 =
        ProgramAnalyzer(rig.context(), no_relin).analyze(p_relin);
    ASSERT_FALSE(r1.ok());
    EXPECT_TRUE(has_kind(r1, DiagKind::MissingKey));

    // Present but too short for the operand's level.
    AnalyzerOptions short_relin;
    short_relin.relin_keys = true;
    short_relin.relin_levels = 2;
    const AnalysisReport r2 =
        ProgramAnalyzer(rig.context(), short_relin).analyze(p_relin);
    ASSERT_FALSE(r2.ok());
    EXPECT_TRUE(has_kind(r2, DiagKind::MissingKey));

    AnalyzerOptions no_galois;
    no_galois.galois_keys = false;
    const AnalysisReport r3 =
        ProgramAnalyzer(rig.context(), no_galois).analyze(p_rot);
    ASSERT_FALSE(r3.ok());
    EXPECT_TRUE(has_kind(r3, DiagKind::MissingKey));

    // Unknown keys (nullopt) are assumed present.
    EXPECT_TRUE(ProgramAnalyzer(rig.context()).analyze(p_relin).ok());
    EXPECT_TRUE(ProgramAnalyzer(rig.context()).analyze(p_rot).ok());
}

TEST(HeAnalyze, MissingRotationMatchesTheKeyedElements) {
    AnalyzeRig rig;
    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());

    // Step 1 is keyed; step 3 is not; step 0 is the identity element and
    // needs no key at all.
    EXPECT_TRUE(analyzer.analyze(he::rotate_program(1)).ok());
    EXPECT_TRUE(analyzer.analyze(he::rotate_program(0)).ok());
    const AnalysisReport r3 = analyzer.analyze(he::rotate_program(3));
    ASSERT_FALSE(r3.ok());
    const Diagnostic *e = find_kind(r3, DiagKind::MissingRotation);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->op, he::OpCode::Rotate);

    // The rig's galois keys carry no conjugation key.
    ProgramBuilder conj(1);
    conj.output(conj.conjugate(conj.input(0)));
    const AnalysisReport rc = analyzer.analyze(conj.build());
    ASSERT_FALSE(rc.ok());
    EXPECT_TRUE(has_kind(rc, DiagKind::MissingRotation));
}

TEST(HeAnalyze, DeadMustFailNodeErrorsStrictButOnlyWarnsAligned) {
    AnalyzeRig rig;
    ProgramBuilder b(1);
    b.rescale(b.input(0));  // dead, and a must-fail at input level 1
    b.output(b.negate(b.input(0)));
    const he::Program p = b.build();
    const double base = rig.base_scale();

    // The raw interpreter executes dead nodes, so strict mode rejects.
    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    const AnalysisReport strict_report = strict.analyze(p, 1, base);
    ASSERT_FALSE(strict_report.ok());
    EXPECT_TRUE(has_kind(strict_report, DiagKind::LevelUnderflow));
    EXPECT_TRUE(has_kind(strict_report, DiagKind::DeadNode));

    // DCE strips the node before it can fail: warning only.
    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    const AnalysisReport aligned_report = aligned.analyze(p, 1, base);
    EXPECT_TRUE(aligned_report.ok()) << aligned_report.summary();
    const Diagnostic *dead = find_kind(aligned_report, DiagKind::DeadNode);
    ASSERT_NE(dead, nullptr);
    EXPECT_EQ(dead->severity, Severity::Warning);
}

TEST(HeAnalyze, StructuralFailuresReportAtProgramScope) {
    AnalyzeRig rig;
    ProgramAnalyzer analyzer(rig.context());

    // An output naming a program input.
    he::Program aliasing;
    aliasing.num_inputs = 1;
    aliasing.nodes.push_back({he::OpCode::Negate, 0, 0, 0});
    aliasing.outputs = {0};
    const AnalysisReport ra = analyzer.analyze(aliasing);
    ASSERT_FALSE(ra.ok());
    const Diagnostic *alias = find_kind(ra, DiagKind::OutputAliasesInput);
    ASSERT_NE(alias, nullptr);
    EXPECT_EQ(alias->node, Diagnostic::kProgram);
    EXPECT_TRUE(ra.values.empty());  // fact walk never ran

    // An operand index past the value space.
    he::Program malformed;
    malformed.num_inputs = 1;
    malformed.nodes.push_back({he::OpCode::Negate, 5, 0, 0});
    malformed.outputs = {1};
    const AnalysisReport rm = analyzer.analyze(malformed);
    ASSERT_FALSE(rm.ok());
    EXPECT_TRUE(has_kind(rm, DiagKind::Malformed));

    // Wrong InputFacts arity is a caller error, also Malformed.
    ProgramBuilder b(1);
    b.output(b.negate(b.input(0)));
    const std::vector<InputFacts> two_facts(2);
    const AnalysisReport rf = analyzer.analyze(b.build(), two_facts);
    ASSERT_FALSE(rf.ok());
    EXPECT_TRUE(has_kind(rf, DiagKind::Malformed));
}

TEST(HeAnalyze, OversizeCipherFlowsAsWarningsNotErrors) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.negate(b.multiply(b.input(0), b.input(1))));
    const he::Program p = b.build();

    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());
    const AnalysisReport report = analyzer.analyze(p);
    EXPECT_TRUE(report.ok()) << report.summary();
    // Once at the negate, once for the size-3 program output.
    EXPECT_GE(report.warning_count(), 2u);
    EXPECT_TRUE(has_kind(report, DiagKind::OversizeCipher));
    const he::ValueFacts &out = report.values.back();
    EXPECT_TRUE(out.size_exact());
    EXPECT_EQ(out.size_min, 3u);
}

TEST(HeAnalyze, RescaleDriftOffTheSnapScaleWarns) {
    AnalyzeRig rig;
    ProgramBuilder b(1);
    b.output(b.rescale(b.input(0)));
    const he::Program p = b.build();
    const double base = rig.base_scale();

    AnalyzerOptions opts;
    opts.snap_scale = base;
    ProgramAnalyzer analyzer(rig.context(), opts);

    // base^2 / prime == base: lands exactly on the snap scale.
    EXPECT_FALSE(
        has_kind(analyzer.analyze(p, 4, base * base), DiagKind::ScaleDrift));
    // base * 137 / prime == 137: hopelessly off the snap range.
    const AnalysisReport drift = analyzer.analyze(p, 4, base * 137.0);
    EXPECT_TRUE(drift.ok());
    const Diagnostic *w = find_kind(drift, DiagKind::ScaleDrift);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->severity, Severity::Warning);
}

TEST(HeAnalyze, DepthPastTheLevelBudgetWarns) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    auto acc = b.relinearize(b.multiply(b.input(0), b.input(1)));
    for (int i = 0; i < 3; ++i) {
        acc = b.relinearize(b.multiply(acc, acc));
    }
    b.output(acc);
    const he::Program p = b.build();

    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());
    const AnalysisReport report = analyzer.analyze(p);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.mult_depth, 4u);
    // max_level 4 affords only 3 rescales.
    const Diagnostic *w = find_kind(report, DiagKind::DepthBudget);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->node, Diagnostic::kProgram);
    EXPECT_EQ(w->severity, Severity::Warning);
}

TEST(HeAnalyze, UnknownInputFactsStayPermissive) {
    AnalyzeRig rig;
    // Rejected under exact level-1 facts, accepted when the caller knows
    // nothing: some level in [1, max] admits the rescale chain.
    const he::Program p = he::mul_lin_rs_program();
    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());
    ASSERT_FALSE(analyzer.analyze(p, 1, rig.base_scale()).ok());
    const std::vector<InputFacts> unknown(p.num_inputs);
    const AnalysisReport report = analyzer.analyze(p, unknown);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(HeAnalyze, SessionRunRejectsStaticallyAndOptOutFaultsAtRuntime) {
    ckks::CkksContext context(ckks::EncryptionParameters::create(1024, 4));
    he::HostBackend backend(context);

    // The default session keys rotations {1} (+ conjugation); step 5 has
    // no galois key, which the admission gate catches before execution.
    he::Session session(backend);
    ProgramBuilder b(1);
    b.output(b.rotate(b.input(0), 5));
    const he::Program p = b.build();

    std::vector<he::Cipher> inputs;
    inputs.push_back(session.encrypt(std::vector<double>{0.5, -0.25}));
    const InputFacts facts = he::facts_of(inputs[0]);
    EXPECT_EQ(facts.size, 2u);
    EXPECT_EQ(facts.level, context.max_level());
    EXPECT_DOUBLE_EQ(facts.scale, session.scale());

    try {
        session.run(p, inputs);
        FAIL() << "expected he::ProgramRejected";
    } catch (const he::ProgramRejected &e) {
        ASSERT_FALSE(e.diagnostics().empty());
        EXPECT_EQ(e.diagnostics()[0].kind, DiagKind::MissingRotation);
        EXPECT_NE(std::string(e.what()).find("MissingRotation"),
                  std::string::npos);
    }

    // Opting out of analysis (and compilation) defers the same defect to
    // the interpreter, which faults mid-execution without diagnostics.
    he::SessionOptions raw_opts;
    raw_opts.analyze_programs = false;
    raw_opts.compile_programs = false;
    he::Session raw(backend, raw_opts);
    std::vector<he::Cipher> raw_inputs;
    raw_inputs.push_back(raw.encrypt(std::vector<double>{0.5, -0.25}));
    try {
        raw.run(p, raw_inputs);
        FAIL() << "expected a runtime fault";
    } catch (const he::ProgramRejected &) {
        FAIL() << "analysis ran despite the opt-out";
    } catch (const std::invalid_argument &) {
        // The evaluator's missing-key fault — the un-gated behavior.
    }
}

/// The smallest program whose output node is `op`, over inputs x (size
/// 2, max level, base scale) and z (same, at another scale), with `plain`
/// as the only constant.
he::Program smallest_program(he::OpCode op, const ckks::Plaintext &plain) {
    using he::OpCode;
    ProgramBuilder b(2);
    const auto c = b.constant(plain);
    const auto x = b.input(0), z = b.input(1);
    ProgramBuilder::Value out{};
    switch (op) {
        case OpCode::Add: out = b.add(x, x); break;
        case OpCode::Sub: out = b.sub(x, x); break;
        case OpCode::Negate: out = b.negate(x); break;
        case OpCode::AddPlain: out = b.add_plain(x, c); break;
        case OpCode::MultiplyPlain: out = b.multiply_plain(x, c); break;
        case OpCode::Multiply: out = b.multiply(x, z); break;
        case OpCode::Square: out = b.square(x); break;
        case OpCode::Relinearize:
            out = b.relinearize(b.multiply(x, z));
            break;
        case OpCode::Rescale: out = b.rescale(x); break;
        case OpCode::ModSwitch: out = b.mod_switch(x); break;
        case OpCode::ModSwitchAdopt: out = b.mod_switch_adopt(x, z); break;
        case OpCode::Rotate: out = b.rotate(x, 1); break;
        case OpCode::Conjugate: out = b.conjugate(x); break;
        case OpCode::ModSwitchAdd:
            out = b.mod_switch_add(b.mod_switch(x), z);
            break;
        case OpCode::AdoptScale: out = b.adopt_scale(x, z); break;
        case OpCode::MultiplyAcc: out = b.multiply_acc(x, z, 3); break;
    }
    b.output(out);
    return b.build();
}

/// kOpTable checked against execution: for every op, the strict
/// analyzer's facts for the output of its smallest program, under the
/// inputs' exact facts, are point intervals equal (bit for bit) to the
/// size, level and scale of the Cipher both backends actually return, and
/// a multiply's output sits at multiplicative depth one.
TEST(HeAnalyze, OpTableFactsMatchExecutionOnBothBackends) {
    AnalyzeRig rig;
    ckks::GaloisKeys galois = rig.galois;
    galois.keys.merge(rig.bench.keygen.create_conjugation_keys().keys);
    he::ProgramKeys keys = rig.keys();
    keys.galois = &galois;
    AnalyzerOptions opts;
    opts.set_keys(keys);
    const ProgramAnalyzer analyzer(rig.context(), opts);

    const double base = rig.base_scale();
    const std::size_t top = rig.context().max_level();
    const ckks::Ciphertext x = rig.bench.enc(rig.bench.values(1, 0.5), base);
    const ckks::Ciphertext z =
        rig.bench.enc(rig.bench.values(2, 0.5), base * 0.75);
    const ckks::Plaintext plain = rig.bench.encoder.encode(0.5, base, top);

    he::HostBackend host(rig.context());
    core::GpuContext gpu(rig.context(), xgpu::device1(), core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend device(gpu, evaluator);

    for (uint8_t code = 0; code <= he::kMaxOpCode; ++code) {
        const auto op = static_cast<he::OpCode>(code);
        SCOPED_TRACE(he::op_code_name(op));
        const he::Program program = smallest_program(op, plain);
        ASSERT_EQ(program.nodes[program.outputs[0] - program.num_inputs -
                                program.constants.size()]
                      .op,
                  op);
        for (he::Backend *backend : {static_cast<he::Backend *>(&host),
                                     static_cast<he::Backend *>(&device)}) {
            const std::vector<he::Cipher> inputs = {backend->upload(x),
                                                    backend->upload(z)};
            const std::vector<InputFacts> facts = {he::facts_of(inputs[0]),
                                                   he::facts_of(inputs[1])};
            const AnalysisReport report = analyzer.analyze(program, facts);
            ASSERT_TRUE(report.ok()) << report.summary();
            const he::Cipher result =
                he::run_program(program, *backend, inputs, keys)[0];
            const he::ValueFacts &f = report.values[program.outputs[0]];
            EXPECT_EQ(f.size_min, result.size());
            EXPECT_EQ(f.size_max, result.size());
            EXPECT_EQ(f.level_min, result.level());
            EXPECT_EQ(f.level_max, result.level());
            EXPECT_EQ(std::bit_cast<uint64_t>(f.scale_lo),
                      std::bit_cast<uint64_t>(result.scale()));
            EXPECT_EQ(std::bit_cast<uint64_t>(f.scale_hi),
                      std::bit_cast<uint64_t>(result.scale()));
            if (he::op_info(op).mult()) {
                // One multiply on the only path: depth one.
                EXPECT_EQ(f.mult_depth, 1u);
                EXPECT_EQ(report.mult_depth, 1u);
            }
        }
    }
}

}  // namespace
}  // namespace xehe::test
