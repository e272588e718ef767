// he::Program — a compact, wire-serializable circuit IR over the Backend
// primitives.
//
// A program is an op list over a single value space: indices
// [0, num_inputs) are the caller's ciphertext inputs, the next
// [num_inputs, num_inputs + constants.size()) are embedded plaintext
// constants, and every node appends one ciphertext value.  `outputs`
// names the values the program returns.  Ops are the raw Backend
// primitives — the interpreter performs no automatic management, so a
// program's kernel stream (and therefore its ciphertext bits) is exactly
// the op sequence it spells out; he::Session is the managed surface.
//
// Programs serialize through the src/wire envelope (Tag::Program) and are
// the payload of serve::Op::Program requests: clients ship arbitrary
// circuits instead of picking from the five hard-coded routines, and the
// five Section IV-C routines themselves are re-expressed as the canonical
// programs below (the routine harness and the server interpret those, so
// there is exactly one execution path).
#pragma once

#include <iterator>

#include "he/backend.h"
#include "wire/wire.h"

namespace xehe::he {

/// The Backend primitives a program composes; kOpTable below states each
/// op's operands, size/level/scale transfer and key needs.
enum class OpCode : uint8_t {
    Add = 0,
    Sub = 1,
    Negate = 2,
    AddPlain = 3,
    MultiplyPlain = 4,
    Multiply = 5,
    Square = 6,
    Relinearize = 7,
    Rescale = 8,
    ModSwitch = 9,
    /// (cipher a, cipher ref): mod-switch `a` one level and adopt `ref`'s
    /// scale metadata — the routines' approximate-scale bookkeeping
    /// (`c_down.scale = prod.scale`), with no extra kernel.
    ModSwitchAdopt = 10,
    Rotate = 11,     ///< imm = step
    Conjugate = 12,
    /// (cipher a, cipher c): a + mod_switch(c) with c adopting a's scale
    /// — the MulLinRSModSwAdd tail as one op, which the GPU backend
    /// executes as a single fused gather+add launch.
    ModSwitchAdd = 13,
    /// (cipher a, cipher ref): copy of `a` carrying `ref`'s scale
    /// metadata — the compiler's scale-snap repair (Backend::set_scale,
    /// one copy kernel on the GPU backend).  Emitted by
    /// he::ProgramCompiler; pre-compiler wire readers reject the opcode,
    /// but the wire format itself is unchanged (no version bump).
    AdoptScale = 14,
};

inline constexpr uint8_t kMaxOpCode =
    static_cast<uint8_t>(OpCode::AdoptScale);

/// Static shape report of a program (Program::stats()): what the
/// interpreter will do without executing it.  Level figures count prime
/// drops relative to the inputs, so no context is needed.
struct ProgramStats {
    std::size_t nodes = 0;
    std::size_t constants = 0;
    std::size_t outputs = 0;
    std::size_t multiplies = 0;      ///< Multiply + Square
    std::size_t plain_multiplies = 0;
    std::size_t key_switches = 0;    ///< Relinearize + Rotate + Conjugate
    std::size_t rescales = 0;
    std::size_t mod_switches = 0;    ///< ModSwitch + adopt/add variants
    /// Longest op chain from any input/constant to an output.
    std::size_t depth = 0;
    /// Maximum primes dropped along any input->output path — the level
    /// budget the circuit consumes.
    std::size_t levels_consumed = 0;
    std::size_t fusion_groups = 0;
    /// Top-level op dispatches the interpreter will make: one per node,
    /// minus the launches pre-planned dyadic groups merge away.
    std::size_t planned_launches = 0;
};

/// What an op's second operand is.
enum class Operand : uint8_t {
    None,    ///< unary op
    Cipher,  ///< ciphertext data: agrees with the first operand in size
             ///< and level (ModSwitchAdd: sits one level above)
    Plain,   ///< embedded constant at the cipher's level
    Ref,     ///< ciphertext read only for its scale metadata
};

/// Where the result sits in the modulus chain.
enum class LevelRule : uint8_t {
    Keep,         ///< the first operand's level
    Drop,         ///< one prime lower; the operand needs two or more
    AddendAbove,  ///< the first operand's; the addend sits one above
};

/// The result's scale metadata, in the backends' double arithmetic.
enum class ScaleRule : uint8_t {
    Keep,      ///< the first operand's
    Times,     ///< the first operand's times the second's
    Square,    ///< the first operand's squared
    DivPrime,  ///< the first operand's over the dropped prime
    Adopt,     ///< the second operand's
};

enum class KeyNeed : uint8_t { None, Relin, Galois };

/// One op's semantics, stated once: the validator, Program::stats, the
/// compiler and the analyzer all read kOpTable instead of restating it.
/// Only policy stays per-op code: the planner's repairs, the analyzer's
/// interval rules, and run_program's backend dispatch.
struct OpInfo {
    OpCode op;
    const char *name;
    Operand second = Operand::None;
    bool imm = false;     ///< takes an immediate (the rotation step)
    /// One elementwise launch on the GPU backend (no NTT, no key
    /// switch): the compiler's fusion pre-lowering may group it.
    bool dyadic = false;
    uint8_t size_in = 0;   ///< required size of each data operand; 0 = any
    uint8_t size_out = 0;  ///< result size; 0 = the first operand's
    LevelRule level = LevelRule::Keep;
    ScaleRule scale = ScaleRule::Keep;
    bool scale_gate = false;  ///< operand scales must pass scales_match
    KeyNeed key = KeyNeed::None;
    bool align = false;  ///< pure alignment: the planner may strip it
    std::size_t ProgramStats::*stat = nullptr;  ///< counter it bumps
    /// Diagnostic text when the size_in need or a level drop fails.
    const char *violation = nullptr;

    constexpr std::size_t arity() const noexcept {
        return second == Operand::None ? 1 : 2;
    }
    /// Multiplies (and only they) count toward multiplicative depth.
    constexpr bool mult() const noexcept {
        return stat == &ProgramStats::multiplies;
    }
};

// clang-format off
inline constexpr OpInfo kOpTable[] = {
    {.op = OpCode::Add, .name = "Add", .second = Operand::Cipher,
     .dyadic = true, .scale_gate = true},
    {.op = OpCode::Sub, .name = "Sub", .second = Operand::Cipher,
     .dyadic = true, .scale_gate = true},
    {.op = OpCode::Negate, .name = "Negate", .dyadic = true},
    {.op = OpCode::AddPlain, .name = "AddPlain", .second = Operand::Plain,
     .dyadic = true, .scale_gate = true},
    {.op = OpCode::MultiplyPlain, .name = "MultiplyPlain",
     .second = Operand::Plain, .dyadic = true, .scale = ScaleRule::Times,
     .stat = &ProgramStats::plain_multiplies},
    {.op = OpCode::Multiply, .name = "Multiply", .second = Operand::Cipher,
     .size_in = 2, .size_out = 3, .scale = ScaleRule::Times,
     .stat = &ProgramStats::multiplies,
     .violation = "multiply expects size-2 operands; relinearize first"},
    {.op = OpCode::Square, .name = "Square", .dyadic = true, .size_in = 2,
     .size_out = 3, .scale = ScaleRule::Square,
     .stat = &ProgramStats::multiplies,
     .violation = "square expects a size-2 operand; relinearize first"},
    {.op = OpCode::Relinearize, .name = "Relinearize", .size_in = 3,
     .size_out = 2, .key = KeyNeed::Relin,
     .stat = &ProgramStats::key_switches,
     .violation = "relinearize expects a size-3 ciphertext"},
    {.op = OpCode::Rescale, .name = "Rescale", .level = LevelRule::Drop,
     .scale = ScaleRule::DivPrime, .stat = &ProgramStats::rescales,
     .violation = "cannot rescale at the last level"},
    {.op = OpCode::ModSwitch, .name = "ModSwitch", .level = LevelRule::Drop,
     .align = true, .stat = &ProgramStats::mod_switches,
     .violation = "cannot switch below one prime"},
    {.op = OpCode::ModSwitchAdopt, .name = "ModSwitchAdopt",
     .second = Operand::Ref, .level = LevelRule::Drop,
     .scale = ScaleRule::Adopt, .align = true,
     .stat = &ProgramStats::mod_switches,
     .violation = "cannot switch below one prime"},
    {.op = OpCode::Rotate, .name = "Rotate", .imm = true, .size_in = 2,
     .size_out = 2, .key = KeyNeed::Galois,
     .stat = &ProgramStats::key_switches,
     .violation = "rotate expects a size-2 ciphertext"},
    {.op = OpCode::Conjugate, .name = "Conjugate", .size_in = 2,
     .size_out = 2, .key = KeyNeed::Galois,
     .stat = &ProgramStats::key_switches,
     .violation = "conjugate expects a size-2 ciphertext"},
    {.op = OpCode::ModSwitchAdd, .name = "ModSwitchAdd",
     .second = Operand::Cipher, .level = LevelRule::AddendAbove,
     .stat = &ProgramStats::mod_switches},
    {.op = OpCode::AdoptScale, .name = "AdoptScale", .second = Operand::Ref,
     .dyadic = true, .scale = ScaleRule::Adopt, .align = true},
};
// clang-format on

static_assert(std::size(kOpTable) == kMaxOpCode + 1u,
              "kOpTable must cover every OpCode");
static_assert(
    [] {
        for (std::size_t i = 0; i < std::size(kOpTable); ++i) {
            if (static_cast<std::size_t>(kOpTable[i].op) != i) {
                return false;
            }
        }
        return true;
    }(),
    "kOpTable rows must sit at their OpCode's index");

/// The op's row; `op` must be a valid OpCode (Program::validate checks).
constexpr const OpInfo &op_info(OpCode op) {
    return kOpTable[static_cast<uint8_t>(op)];
}
/// "unknown" for out-of-range codes (diagnostics on unvalidated input).
constexpr const char *op_code_name(OpCode op) {
    return static_cast<uint8_t>(op) <= kMaxOpCode ? op_info(op).name
                                                  : "unknown";
}
/// Operand count of an op (1 or 2).
constexpr std::size_t op_code_arity(OpCode op) {
    return op_info(op).arity();
}

struct Program {
    struct Node {
        OpCode op = OpCode::Add;
        uint32_t a = 0;  ///< first operand (value index)
        uint32_t b = 0;  ///< second operand; 0 and unused for unary ops
        int32_t imm = 0; ///< rotation step (Rotate only)
    };

    /// A contiguous node range [first, last) of mutually independent
    /// dyadic ops the interpreter executes as one pre-planned
    /// FusionBuilder group (one launch on a fusing GPU backend).
    struct FusionGroup {
        uint32_t first = 0;
        uint32_t last = 0;
    };

    uint32_t num_inputs = 0;
    std::vector<ckks::Plaintext> constants;
    std::vector<Node> nodes;
    std::vector<uint32_t> outputs;
    /// Transient annotation written by the compiler's fusion
    /// pre-lowering pass.  Not part of the wire format: save() skips it
    /// and load() leaves it empty, so shipped programs are re-planned on
    /// the receiving side.
    std::vector<FusionGroup> fusion_groups;

    std::size_t value_count() const noexcept {
        return num_inputs + constants.size() + nodes.size();
    }
    bool is_constant(uint32_t index) const noexcept {
        return index >= num_inputs && index < num_inputs + constants.size();
    }

    /// Structural validation: operand indices in range and already
    /// defined, cipher/plaintext kinds where each op expects them, at
    /// least one output, every output a *node* value.  An output naming
    /// an input is rejected: the interpreter would echo the caller's own
    /// handle back as if computed (and the server would serve a client's
    /// input bytes as a result), so the case is defined out.  The same
    /// node named twice in `outputs` is explicitly legal and returns the
    /// shared handle twice — CSE can merge two structurally identical
    /// output nodes into one.  Fusion-group annotations, when present,
    /// must be sorted, disjoint, in range, and cover only dyadic ops.
    /// Throws std::invalid_argument; wire loads run this before
    /// returning.
    void validate() const;

    /// Static shape report (node mix, depth, levels consumed, planned
    /// launches) — see ProgramStats.
    ProgramStats stats() const;
};

/// Structural equality: same inputs, constants (shape, scale and data),
/// nodes and outputs.  Fusion-group annotations are ignored (they are
/// derived, not semantic).
bool structurally_equal(const Program &a, const Program &b);

/// Incremental builder with index bookkeeping; `Value` is just a checked
/// value index.
class ProgramBuilder {
public:
    struct Value {
        uint32_t index;
    };

    explicit ProgramBuilder(std::size_t num_inputs);

    Value input(std::size_t i) const;
    Value constant(ckks::Plaintext plain);

    Value add(Value a, Value b) { return node(OpCode::Add, a, b); }
    Value sub(Value a, Value b) { return node(OpCode::Sub, a, b); }
    Value negate(Value a) { return node(OpCode::Negate, a); }
    Value add_plain(Value a, Value c) { return node(OpCode::AddPlain, a, c); }
    Value multiply_plain(Value a, Value c) {
        return node(OpCode::MultiplyPlain, a, c);
    }
    Value multiply(Value a, Value b) { return node(OpCode::Multiply, a, b); }
    Value square(Value a) { return node(OpCode::Square, a); }
    Value relinearize(Value a) { return node(OpCode::Relinearize, a); }
    Value rescale(Value a) { return node(OpCode::Rescale, a); }
    Value mod_switch(Value a) { return node(OpCode::ModSwitch, a); }
    Value mod_switch_adopt(Value a, Value ref) {
        return node(OpCode::ModSwitchAdopt, a, ref);
    }
    Value mod_switch_add(Value a, Value c) {
        return node(OpCode::ModSwitchAdd, a, c);
    }
    Value adopt_scale(Value a, Value ref) {
        return node(OpCode::AdoptScale, a, ref);
    }
    Value rotate(Value a, int step);
    Value conjugate(Value a) { return node(OpCode::Conjugate, a); }

    void output(Value v);

    /// Validates and returns the finished program.
    Program build();

private:
    Value node(OpCode op, Value a, Value b = {0});

    Program program_;
};

/// Keys the interpreter hands to key-consuming ops; a needed-but-missing
/// key throws.
struct ProgramKeys {
    const ckks::RelinKeys *relin = nullptr;
    const ckks::GaloisKeys *galois = nullptr;
};

/// Interprets `program` over `backend` on the given inputs (one Cipher
/// per program input, on that backend) and returns the output handles in
/// `program.outputs` order.  Raw execution: ops map 1:1 onto Backend
/// calls, in node order.
std::vector<Cipher> run_program(const Program &program, Backend &backend,
                                std::span<const Cipher> inputs,
                                const ProgramKeys &keys = {});

// ---------------------------------------------------------------------------
// Canonical programs for the five Section IV-C routines.  Interpreted over
// GpuBackend they are bit-identical to the direct GpuEvaluator routine
// calls (tests/test_he_program.cpp proves it differentially).
// ---------------------------------------------------------------------------

Program mul_lin_program();             ///< relin(a * b)
Program mul_lin_rs_program();          ///< rescale(relin(a * b))
Program sqr_lin_rs_program();          ///< rescale(relin(a^2))
Program mul_lin_rs_modsw_add_program();///< rescale(relin(a*b)) + modsw(c)
Program rotate_program(int step);      ///< rotate(a, step)

// ---------------------------------------------------------------------------
// Wire serialization (picked up by wire::serialize / load_enveloped via
// ADL).  Loading validates structurally and needs the context for the
// embedded plaintext constants.
// ---------------------------------------------------------------------------

void save(wire::Writer &w, const Program &program);
void load(wire::Reader &r, const ckks::CkksContext &ctx, Program &program);

Program load_program(std::span<const uint8_t> buffer,
                     const ckks::CkksContext &ctx);

}  // namespace xehe::he
