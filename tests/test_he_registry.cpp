// he::BackendRegistry — registration, capability probing, typed
// unavailability (he::BackendUnavailable from unknown/disabled/probe-failed
// /factory-thrown lookups), forced disabling, and the registry-driven
// conformance sweep: every registered-and-available backend must produce
// bit-identical ciphertexts on the five IV-C routine programs, the
// MultiplyAcc matmul tile and seeded random he::Program DAGs.  The serving fallback half proves the
// stack degrades to host (no request errors, LatencyStats::fallbacks
// counts) when the GPU backend is disabled — the XEHE_DISABLE_BACKENDS CI
// lane in miniature, driven through set_disabled().
#include "test_common.h"

#include "he/registry.h"
#include "serve/server.h"
#include "xehe/evaluator_pool.h"
#include "xehe/routines.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using he::BackendRegistry;
using he::BackendUnavailable;

/// Force-disables a backend for one test, restoring the prior state on
/// exit — the env-driven forced-fallback CI lane must not be un-disabled
/// by a test that happens to touch the same name.
class DisabledGuard {
public:
    DisabledGuard(std::string name, bool disabled = true)
        : name_(std::move(name)),
          prior_(BackendRegistry::instance().disabled(name_)) {
        BackendRegistry::instance().set_disabled(name_, disabled);
    }
    ~DisabledGuard() {
        BackendRegistry::instance().set_disabled(name_, prior_);
    }
    DisabledGuard(const DisabledGuard &) = delete;
    DisabledGuard &operator=(const DisabledGuard &) = delete;

private:
    std::string name_;
    bool prior_;
};

struct RegistryRig {
    CkksBench host;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    explicit RegistryRig(std::size_t n = 1024, std::size_t levels = 4)
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

    he::BackendEnv env() const {
        he::BackendEnv e;
        e.context = &host.context;
        return e;
    }
};

/// Every registered backend whose probe passes AND whose factory
/// constructs, through the registry (standalone resources; no lane
/// wrapping).  A backend whose factory throws typed despite a passing
/// probe — the race every consumer must tolerate, and exactly what the
/// registration tests leave behind in this process — is skipped, the same
/// degradation the serving stack performs.
std::vector<he::BackendBundle> available_backends(const he::BackendEnv &env) {
    auto &registry = BackendRegistry::instance();
    std::vector<he::BackendBundle> bundles;
    for (const auto &name : registry.names()) {
        if (!registry.available(name)) {
            continue;
        }
        try {
            bundles.push_back(registry.create(name, env));
        } catch (const BackendUnavailable &) {
        }
    }
    return bundles;
}

/// Uploads the first program.num_inputs ciphertexts, interprets the
/// program, and returns each output as its serialized wire bytes — the
/// strictest cross-backend comparison (data, metadata, scale, all of it).
std::vector<std::vector<uint8_t>> run_on(
    he::Backend &backend, const he::Program &program,
    std::span<const ckks::Ciphertext> cts, const he::ProgramKeys &keys) {
    std::vector<he::Cipher> inputs;
    inputs.reserve(program.num_inputs);
    for (std::size_t i = 0; i < program.num_inputs; ++i) {
        inputs.push_back(backend.upload(cts[i]));
    }
    const auto outputs = he::run_program(program, backend, inputs, keys);
    std::vector<std::vector<uint8_t>> bytes;
    bytes.reserve(outputs.size());
    for (const auto &out : outputs) {
        bytes.push_back(wire::serialize(backend.download(out)));
    }
    return bytes;
}

/// A random multiply-depth-stratified program DAG.  The generation
/// invariant: a value's generation is its multiply depth, every
/// generation-g value sits at level max_level - g with the identical
/// derived scale (all g-producing rescales drop the same prime), so any
/// same-generation pair is a legal Add/Sub/Multiply operand pair without
/// tracking scales explicitly.
he::Program random_dag(uint64_t seed, std::size_t max_gen) {
    std::mt19937_64 rng(seed);
    const std::size_t num_inputs = 2 + rng() % 2;  // 2..3
    he::ProgramBuilder builder(num_inputs);

    struct Entry {
        he::ProgramBuilder::Value value;
        std::size_t gen;
    };
    std::vector<Entry> pool;
    for (std::size_t i = 0; i < num_inputs; ++i) {
        pool.push_back({builder.input(i), 0});
    }
    const auto peer_of = [&](const Entry &x) -> const Entry & {
        // A uniformly random pool entry of x's generation (possibly x).
        std::size_t count = 0;
        const Entry *pick = &x;
        for (const Entry &e : pool) {
            if (e.gen == x.gen && rng() % ++count == 0) {
                pick = &e;
            }
        }
        return *pick;
    };

    const std::size_t ops = 4 + rng() % 7;  // 4..10
    Entry last = pool.front();
    for (std::size_t step = 0; step < ops; ++step) {
        Entry &x = pool[rng() % pool.size()];
        Entry out;
        const int op = static_cast<int>(rng() % 6);
        const bool can_multiply = x.gen < max_gen;
        switch (can_multiply ? op : op % 4) {
            case 0:
                out = {builder.add(x.value, peer_of(x).value), x.gen};
                break;
            case 1:
                out = {builder.sub(x.value, peer_of(x).value), x.gen};
                break;
            case 2:
                out = {builder.negate(x.value), x.gen};
                break;
            case 3:
                out = {builder.rotate(x.value, 1), x.gen};
                break;
            case 4:
                out = {builder.rescale(builder.relinearize(builder.multiply(
                           x.value, peer_of(x).value))),
                       x.gen + 1};
                break;
            default:
                out = {builder.rescale(
                           builder.relinearize(builder.square(x.value))),
                       x.gen + 1};
                break;
        }
        last = out;
        pool[rng() % pool.size()] = out;
    }
    builder.output(last.value);
    return builder.build();
}

// ---------------------------------------------------------------------------
// Registration and typed unavailability
// ---------------------------------------------------------------------------

TEST(HeRegistry, BuiltinsAreRegisteredAndHostIsAlwaysAvailable) {
    auto &registry = BackendRegistry::instance();
    const auto names = registry.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "host"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "gpu"), names.end());
    EXPECT_TRUE(registry.registered("host"));
    EXPECT_TRUE(registry.registered("gpu"));
    EXPECT_TRUE(registry.available("host"));
    EXPECT_FALSE(registry.registered("tpu"));
    EXPECT_FALSE(registry.available("tpu"));

    RegistryRig rig;
    const auto bundle = registry.create("host", rig.env());
    ASSERT_TRUE(bundle.valid());
    EXPECT_EQ(bundle.name(), "host");
    EXPECT_STREQ(bundle.backend().name(), "host");
    EXPECT_EQ(&bundle.backend().context(), &rig.host.context);
}

TEST(HeRegistry, UnknownBackendThrowsTypedWithName) {
    RegistryRig rig;
    try {
        BackendRegistry::instance().create("nonexistent", rig.env());
        FAIL() << "expected BackendUnavailable";
    } catch (const BackendUnavailable &e) {
        EXPECT_EQ(e.backend(), "nonexistent");
        EXPECT_NE(std::string(e.what()).find("nonexistent"),
                  std::string::npos);
    }
    EXPECT_THROW(BackendRegistry::instance().require_available("nonexistent"),
                 BackendUnavailable);
}

TEST(HeRegistry, FailingProbeMeansRegisteredButUnavailable) {
    auto &registry = BackendRegistry::instance();
    registry.register_backend(
        "nullaccel", [] { return false; },
        [](const he::BackendEnv &) -> he::BackendBundle {
            throw std::logic_error("factory must never run");
        });
    EXPECT_TRUE(registry.registered("nullaccel"));
    EXPECT_FALSE(registry.available("nullaccel"));
    RegistryRig rig;
    try {
        registry.create("nullaccel", rig.env());
        FAIL() << "expected BackendUnavailable";
    } catch (const BackendUnavailable &e) {
        EXPECT_EQ(e.backend(), "nullaccel");
    }
    EXPECT_THROW(registry.require_available("nullaccel"), BackendUnavailable);
}

TEST(HeRegistry, ThrowingFactorySurfacesAsTypedUnavailability) {
    auto &registry = BackendRegistry::instance();
    registry.register_backend(
        "flaky", [] { return true; },
        [](const he::BackendEnv &) -> he::BackendBundle {
            throw std::runtime_error("driver handshake failed");
        });
    EXPECT_TRUE(registry.available("flaky"));
    RegistryRig rig;
    try {
        registry.create("flaky", rig.env());
        FAIL() << "expected BackendUnavailable";
    } catch (const BackendUnavailable &e) {
        EXPECT_EQ(e.backend(), "flaky");
        EXPECT_NE(std::string(e.what()).find("driver handshake failed"),
                  std::string::npos);
    }
}

TEST(HeRegistry, HostFactoryRequiresContext) {
    // An env without a context cannot construct any built-in.
    EXPECT_THROW(BackendRegistry::instance().create("host", he::BackendEnv{}),
                 BackendUnavailable);
}

TEST(HeRegistry, DisableForcesTypedUnavailability) {
    auto &registry = BackendRegistry::instance();
    RegistryRig rig;
    {
        DisabledGuard guard("gpu");
        EXPECT_TRUE(registry.registered("gpu"));
        EXPECT_TRUE(registry.disabled("gpu"));
        EXPECT_FALSE(registry.available("gpu"));
        try {
            registry.create("gpu", rig.env());
            FAIL() << "expected BackendUnavailable";
        } catch (const BackendUnavailable &e) {
            EXPECT_EQ(e.backend(), "gpu");
        }
        // The hard-wired construction seam: the pool refuses to come up
        // with the typed error instead of constructing a dead scheduler.
        EXPECT_THROW(core::GpuEvaluatorPool(rig.host.context, xgpu::device1(),
                                            core::GpuOptions{}, 2),
                     BackendUnavailable);
    }
}

TEST(HeRegistry, CreateOrHostDegradesToHost) {
    RegistryRig rig;
    {
        DisabledGuard guard("gpu");
        const auto bundle =
            BackendRegistry::instance().create_or_host("gpu", rig.env());
        ASSERT_TRUE(bundle.valid());
        EXPECT_EQ(bundle.name(), "host");
    }
    if (BackendRegistry::instance().available("gpu")) {
        const auto bundle =
            BackendRegistry::instance().create_or_host("gpu", rig.env());
        ASSERT_TRUE(bundle.valid());
        EXPECT_EQ(bundle.name(), "gpu");
    }
}

// ---------------------------------------------------------------------------
// Registry-driven conformance: every available backend, bit-identical
// ---------------------------------------------------------------------------

TEST(HeRegistryConformance, CanonicalProgramsBitIdenticalAcrossBackends) {
    RegistryRig rig;
    auto bundles = available_backends(rig.env());
    ASSERT_GE(bundles.size(), 1u);  // host at minimum (forced-fallback lane)

    const ckks::Ciphertext cts[3] = {rig.host.enc(rig.host.values(1)),
                                     rig.host.enc(rig.host.values(2)),
                                     rig.host.enc(rig.host.values(3))};
    // The five IV-C routines, and the matmul tile at t = 1, 2, 3: the host
    // backend's multiply plus t-1 adds against the GPU backend's t chained
    // multiply-accumulate launches.
    std::vector<std::pair<std::string, const he::Program *>> programs;
    for (const core::Routine r : core::kAllRoutines) {
        programs.emplace_back(core::routine_name(r),
                              &core::routine_program(r));
    }
    const he::Program tiles[3] = {he::multiply_acc_program(1),
                                  he::multiply_acc_program(2),
                                  he::multiply_acc_program(3)};
    for (const he::Program &tile : tiles) {
        programs.emplace_back(
            "MultiplyAcc t=" + std::to_string(tile.nodes[0].imm), &tile);
    }
    for (const auto &[name, program] : programs) {
        SCOPED_TRACE(name);
        const auto reference =
            run_on(bundles[0].backend(), *program, cts, rig.keys());
        ASSERT_EQ(reference.size(), 1u);
        EXPECT_FALSE(reference[0].empty());
        for (std::size_t i = 1; i < bundles.size(); ++i) {
            const auto other =
                run_on(bundles[i].backend(), *program, cts, rig.keys());
            ASSERT_EQ(other.size(), reference.size())
                << bundles[0].name() << " vs " << bundles[i].name();
            EXPECT_EQ(other[0], reference[0])
                << bundles[0].name() << " vs " << bundles[i].name();
        }
    }
}

TEST(HeRegistryConformance, RandomProgramDagsBitIdenticalAcrossBackends) {
    RegistryRig rig;
    auto bundles = available_backends(rig.env());
    ASSERT_GE(bundles.size(), 1u);

    // Inputs at max level; DAG multiply depth keeps every value at level
    // >= 1 (the same floor the session conformance suite uses).
    const std::size_t max_gen = rig.host.context.max_level() - 1;
    const ckks::Ciphertext cts[3] = {rig.host.enc(rig.host.values(11)),
                                     rig.host.enc(rig.host.values(12)),
                                     rig.host.enc(rig.host.values(13))};
    for (uint64_t seed = 100; seed < 150; ++seed) {
        SCOPED_TRACE(seed);
        const he::Program program = random_dag(seed, max_gen);
        const auto reference =
            run_on(bundles[0].backend(), program, cts, rig.keys());
        ASSERT_EQ(reference.size(), 1u);
        for (std::size_t i = 1; i < bundles.size(); ++i) {
            const auto other =
                run_on(bundles[i].backend(), program, cts, rig.keys());
            ASSERT_EQ(other.size(), reference.size());
            EXPECT_EQ(other[0], reference[0])
                << bundles[0].name() << " vs " << bundles[i].name()
                << " seed " << seed;
        }
    }
}

// ---------------------------------------------------------------------------
// Serving fallback: degrade to host, count it, stay bit-exact
// ---------------------------------------------------------------------------

TEST(HeRegistryFallback, ServerDegradesToHostWithoutRequestErrors) {
    DisabledGuard guard("gpu");
    RegistryRig rig;
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, serve::ServerConfig{});
    EXPECT_FALSE(server.gpu_pool_active());
    EXPECT_GE(server.lane_count(), 1u);
    server.set_keys(rig.relin, rig.galois);

    const auto ct_a = rig.host.enc(rig.host.values(21));
    const auto ct_b = rig.host.enc(rig.host.values(22));

    serve::Request mul;
    mul.session_id = 1;
    mul.op = serve::Op::MulLinRS;
    mul.inputs.push_back(wire::serialize(ct_a));
    mul.inputs.push_back(wire::serialize(ct_b));
    server.submit(wire::serialize(mul));

    serve::Request rot;
    rot.session_id = 2;
    rot.op = serve::Op::Rotate;
    rot.rotate_step = 1;
    rot.inputs.push_back(wire::serialize(ct_a));
    server.submit(wire::serialize(rot));

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    for (const auto &resp : responses) {
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.result.empty());
        EXPECT_LE(resp.enqueue_ns, resp.dispatch_ns);
        EXPECT_LT(resp.dispatch_ns, resp.complete_ns);
    }

    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.fallbacks, 2u);
    EXPECT_EQ(stats.host_requests, 2u);

    // Bit-exact against the independent host-backend oracle.
    he::HostBackend oracle(rig.host.context);
    const ckks::Ciphertext mul_in[2] = {ct_a, ct_b};
    const ckks::Ciphertext rot_in[1] = {ct_a};
    const auto expect_mul = run_on(
        oracle, core::routine_program(core::Routine::MulLinRS), mul_in,
        rig.keys());
    const auto expect_rot = run_on(
        oracle, core::routine_program(core::Routine::Rotate), rot_in,
        rig.keys());
    for (const auto &resp : responses) {
        EXPECT_EQ(resp.result, resp.session_id == 1 ? expect_mul[0]
                                                    : expect_rot[0]);
    }
}

TEST(HeRegistryFallback, GpuPinnedRequestFallsBackWhenDisabled) {
    DisabledGuard guard("gpu");
    RegistryRig rig;
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, serve::ServerConfig{});
    server.set_keys(rig.relin, rig.galois);
    serve::Request req;
    req.op = serve::Op::SqrLinRS;
    req.backend = serve::BackendHint::Gpu;  // pinned, still must not fail
    req.inputs.push_back(wire::serialize(rig.host.enc(rig.host.values(31))));
    server.submit(wire::serialize(req));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0].ok) << responses[0].error;
    EXPECT_EQ(server.stats().fallbacks, 1u);
}

TEST(HeRegistryFallback, HostHintRoutesWithoutFallbackCount) {
    auto &registry = BackendRegistry::instance();
    if (!registry.available("gpu")) {
        GTEST_SKIP() << "gpu backend unavailable; routing needs both";
    }
    RegistryRig rig;
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, serve::ServerConfig{});
    ASSERT_TRUE(server.gpu_pool_active());
    server.set_keys(rig.relin, rig.galois);

    const auto ct = rig.host.enc(rig.host.values(41));
    serve::Request host_pinned;
    host_pinned.session_id = 1;
    host_pinned.op = serve::Op::SqrLinRS;
    host_pinned.backend = serve::BackendHint::Host;
    host_pinned.inputs.push_back(wire::serialize(ct));
    server.submit(wire::serialize(host_pinned));

    serve::Request gpu_auto;
    gpu_auto.session_id = 2;
    gpu_auto.op = serve::Op::SqrLinRS;
    gpu_auto.inputs.push_back(wire::serialize(ct));
    server.submit(wire::serialize(gpu_auto));

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    std::vector<uint8_t> host_result, gpu_result;
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        (resp.session_id == 1 ? host_result : gpu_result) = resp.result;
    }
    const auto stats = server.stats();
    // An explicit Host hint is routing, not degradation.
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(stats.host_requests, 1u);
    // And the two backends agreed bit-exactly on the same job.
    EXPECT_EQ(host_result, gpu_result);

    // The same pair as a MatmulTile job: the host lane's multiply plus
    // tiles-1 adds must match the GPU lane's fused multiply-accumulate
    // chain byte for byte.
    const auto ct_b = rig.host.enc(rig.host.values(42));
    for (const auto hint :
         {serve::BackendHint::Host, serve::BackendHint::Auto}) {
        serve::Request tile;
        tile.session_id = hint == serve::BackendHint::Host ? 1 : 2;
        tile.op = serve::Op::MatmulTile;
        tile.matmul_tiles = 3;
        tile.backend = hint;
        tile.inputs.push_back(wire::serialize(ct));
        tile.inputs.push_back(wire::serialize(ct_b));
        server.submit(wire::serialize(tile));
    }
    const auto tiles = server.run();
    ASSERT_EQ(tiles.size(), 2u);
    std::vector<uint8_t> host_tile, gpu_tile;
    for (const auto &resp : tiles) {
        ASSERT_TRUE(resp.ok) << resp.error;
        (resp.session_id == 1 ? host_tile : gpu_tile) = resp.result;
    }
    EXPECT_EQ(server.stats().fallbacks, 0u);
    EXPECT_EQ(server.stats().host_requests, 2u);
    EXPECT_FALSE(host_tile.empty());
    EXPECT_EQ(host_tile, gpu_tile);
}

TEST(HeRegistryFallback, HostLaneChargesTheSyntheticTimeModel) {
    // The host lane's simulated clock starts at max(lane, dispatch), then
    // adds the key-miss re-staging charge (0.25 ns per expanded key
    // byte), then 40 us per work unit per RNS limb — in that order, so
    // the doubles reproduce bit for bit.  A work unit is one program
    // node, or 2t for a t-tile MultiplyAcc (a matmul tile request).
    constexpr double kNodeNs = 40000.0;
    constexpr double kKeyLoadNsPerByte = 0.25;
    constexpr uint64_t kTiles = 3;
    RegistryRig rig;
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, serve::ServerConfig{});
    server.register_session_keys(7, rig.relin, rig.galois);
    server.register_session_keys(8, rig.relin, rig.galois);
    server.register_session_keys(9, rig.relin, rig.galois);

    serve::Request functional;
    functional.session_id = 7;
    functional.op = serve::Op::MulLinRS;
    functional.backend = serve::BackendHint::Host;
    functional.inputs.push_back(
        wire::serialize(rig.host.enc(rig.host.values(61))));
    functional.inputs.push_back(
        wire::serialize(rig.host.enc(rig.host.values(62))));
    server.submit(wire::serialize(functional));

    serve::Request cost_only;
    cost_only.session_id = 8;
    cost_only.op = serve::Op::MulLinRS;
    cost_only.backend = serve::BackendHint::Host;
    cost_only.cost_only = true;
    server.submit(wire::serialize(cost_only));

    serve::Request tile = functional;
    tile.session_id = 9;
    tile.op = serve::Op::MatmulTile;
    tile.matmul_tiles = kTiles;
    server.submit(wire::serialize(tile));

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 3u);
    const double key_bytes = static_cast<double>(
        serve::expanded_key_bytes(rig.relin, rig.galois));
    const double nodes = static_cast<double>(
        core::routine_program(core::Routine::MulLinRS).nodes.size());
    const double limbs =
        static_cast<double>(rig.host.context.max_level() + 1);
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        // Every request misses the key cache (first acquire of each
        // session) and runs at the maximum level.
        double clock = resp.dispatch_ns;
        clock += kKeyLoadNsPerByte * key_bytes;
        clock += kNodeNs *
                 (resp.session_id == 9 ? static_cast<double>(2 * kTiles)
                                       : nodes) *
                 limbs;
        EXPECT_EQ(resp.complete_ns, clock) << "session " << resp.session_id;
        // A cost-only request on a host lane runs no arithmetic and
        // returns no result bytes; the functional ones do.
        EXPECT_EQ(resp.result.empty(), resp.session_id == 8);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.host_requests, 3u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(stats.keys.misses, 3u);
}

}  // namespace
}  // namespace xehe::test
