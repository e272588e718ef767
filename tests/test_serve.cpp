// The encrypted-inference serving frontend: requests flow through the
// admission queue as wire bytes, execute on the session's pool lane, and
// come back as wire bytes — correct results (bit-exact against a direct
// single-lane evaluation), fault isolation for bad requests, timestamp and
// batching semantics, deterministic latency stats, and the multi-lane
// throughput gain on the dual-tile device.
#include "test_common.h"

#include "serve/server.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using serve::ConfigError;
using serve::InferenceServer;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::ServerConfig;

struct ServeBench {
    CkksBench host;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    ServeBench() : host(1024, 3) {
        relin = host.keygen.create_relin_keys();
        const int steps[] = {1, -1};
        galois = host.keygen.create_galois_keys(steps);
    }

    InferenceServer server(ServerConfig cfg = {}) {
        InferenceServer s(host.context, xgpu::device1(),
                          core::GpuOptions{}, cfg);
        s.set_keys(relin, galois);
        return s;
    }

    std::vector<uint8_t> request_bytes(uint64_t session, Op op,
                                       std::span<const uint64_t> value_seeds,
                                       double arrival_ns = 0.0) {
        Request req;
        req.session_id = session;
        req.op = op;
        req.arrival_ns = arrival_ns;
        for (const uint64_t seed : value_seeds) {
            req.inputs.push_back(
                wire::serialize(host.enc(host.values(seed))));
        }
        return wire::serialize(req);
    }
};

TEST(Serve, MulLinRsMatchesDirectEvaluationBitExact) {
    ServeBench b;
    auto server = b.server();
    // The exact ciphertexts travel both paths: through the server as wire
    // bytes, and directly through a standalone GPU evaluator.
    const auto ct_a = b.host.enc(b.host.values(1));
    const auto ct_b = b.host.enc(b.host.values(2));
    Request req;
    req.session_id = 0;
    req.op = Op::MulLinRS;
    req.inputs.push_back(wire::serialize(ct_a));
    req.inputs.push_back(wire::serialize(ct_b));
    server.submit(wire::serialize(req));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].ok) << responses[0].error;

    const auto result =
        wire::load_ciphertext(responses[0].result, b.host.context);

    core::GpuContext gpu(b.host.context, xgpu::device1(), core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    const auto ref = core::download(
        gpu, evaluator.mul_lin_rs(core::upload(gpu, ct_a),
                                  core::upload(gpu, ct_b), b.relin));
    EXPECT_EQ(result.data, ref.data);
    EXPECT_EQ(result.rns, ref.rns);
    EXPECT_EQ(result.scale, ref.scale);
}

TEST(Serve, AllOpsSucceedAndDecode) {
    ServeBench b;
    auto server = b.server();
    const auto va = b.host.values(11);
    const auto vb = b.host.values(12);

    uint64_t session = 0;
    const uint64_t one[] = {11};
    const uint64_t two[] = {11, 12};
    const uint64_t three[] = {11, 12, 13};
    server.submit(b.request_bytes(session++, Op::MulLin, two));
    server.submit(b.request_bytes(session++, Op::MulLinRS, two));
    server.submit(b.request_bytes(session++, Op::SqrLinRS, one));
    server.submit(b.request_bytes(session++, Op::MulLinRSModSwAdd, three));
    server.submit(b.request_bytes(session++, Op::Rotate, one));
    {
        Request req;
        req.session_id = session++;
        req.op = Op::MatmulTile;
        req.matmul_tiles = 2;
        req.inputs.push_back(wire::serialize(b.host.enc(va)));
        req.inputs.push_back(wire::serialize(b.host.enc(vb)));
        server.submit(wire::serialize(req));
    }

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 6u);
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_FALSE(resp.result.empty());
        EXPECT_LE(resp.enqueue_ns, resp.dispatch_ns);
        EXPECT_LT(resp.dispatch_ns, resp.complete_ns);
    }

    // Spot-check two results semantically.
    std::vector<complexd> product(va.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        product[i] = va[i] * vb[i];
    }
    expect_close(
        b.host.dec(wire::load_ciphertext(responses[1].result,
                                         b.host.context)),
        product, 1e-2, "served MulLinRS");
    std::vector<complexd> rotated(va.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        rotated[i] = va[(i + 1) % va.size()];
    }
    expect_close(
        b.host.dec(wire::load_ciphertext(responses[4].result,
                                         b.host.context)),
        rotated, 1e-2, "served Rotate");
}

TEST(Serve, BadRequestsFailWithoutPoisoningTheServer) {
    ServeBench b;
    auto server = b.server();

    // Garbage bytes: rejected at admission.
    const std::vector<uint8_t> garbage = {1, 2, 3, 4, 5};
    server.submit(garbage);

    // Valid envelope, corrupt nested ciphertext: fails at execution.
    {
        Request req;
        req.session_id = 1;
        req.op = Op::SqrLinRS;
        auto ct_bytes = wire::serialize(b.host.enc(b.host.values(21)));
        ct_bytes[ct_bytes.size() / 2] ^= 0x40;
        req.inputs.push_back(std::move(ct_bytes));
        server.submit(wire::serialize(req));
    }

    // A healthy request afterwards still succeeds.
    const uint64_t one[] = {22};
    server.submit(b.request_bytes(2, Op::SqrLinRS, one));

    // In-process tile counts outside the wire's [1, 2^20] fail typed
    // instead of running zero tiles or a count wrapped to a small one.
    for (const uint64_t tiles : {uint64_t{0}, (uint64_t{1} << 32) + 1}) {
        Request req;
        req.session_id = 3;
        req.op = Op::MatmulTile;
        req.matmul_tiles = tiles;
        req.inputs.push_back(wire::serialize(b.host.enc(b.host.values(23))));
        req.inputs.push_back(wire::serialize(b.host.enc(b.host.values(24))));
        server.submit(std::move(req));
    }

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 5u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_FALSE(responses[0].error.empty());
    EXPECT_FALSE(responses[1].ok);
    EXPECT_NE(responses[1].error.find("wire"), std::string::npos);
    EXPECT_TRUE(responses[2].ok) << responses[2].error;
    for (std::size_t i = 3; i < 5; ++i) {
        EXPECT_FALSE(responses[i].ok);
        EXPECT_NE(responses[i].error.find("immediate out of range"),
                  std::string::npos)
            << responses[i].error;
    }

    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.failed, 4u);
}

TEST(Serve, MissingKeysReportedPerRequest) {
    ServeBench b;
    InferenceServer server(b.host.context, xgpu::device1(),
                           core::GpuOptions{});
    const uint64_t one[] = {31};
    server.submit(b.request_bytes(0, Op::SqrLinRS, one));
    server.submit(b.request_bytes(1, Op::Rotate, one));
    // A client circuit is held to the same upfront key check: its
    // program's key needs are read before any operand is uploaded.
    Request circuit;
    circuit.session_id = 2;
    circuit.op = Op::Program;
    circuit.program = wire::serialize(he::rotate_program(1));
    circuit.inputs.push_back(wire::serialize(b.host.enc(b.host.values(31))));
    server.submit(wire::serialize(circuit));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 3u);
    const char *needs[] = {"relin keys not registered",
                           "galois keys not registered",
                           "galois keys not registered"};
    for (std::size_t i = 0; i < responses.size(); ++i) {
        EXPECT_FALSE(responses[i].ok);
        EXPECT_NE(responses[i].error.find(needs[i]), std::string::npos)
            << responses[i].error;
        // Failed before any side effect: no lane time was charged.
        EXPECT_EQ(responses[i].dispatch_ns, responses[i].complete_ns)
            << "request " << i;
    }
}

TEST(Serve, DynamicBatchingFormsExpectedBatches) {
    ServeBench b;
    ServerConfig cfg;
    cfg.max_batch = 2;
    // All five requests arrive at t = 0, so any positive window forms the
    // same batches a zero window would.
    cfg.batch_window_ns = 1000.0;
    cfg.functional = false;
    auto server = b.server(cfg);

    for (uint64_t s = 0; s < 5; ++s) {
        Request req;
        req.session_id = s;
        req.op = Op::SqrLinRS;
        req.cost_only = true;
        server.submit(std::move(req));
    }
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 5u);
    // 5 simultaneous arrivals, batch cap 2 -> 3 batches.
    EXPECT_EQ(server.stats().batches, 3u);

    // max_batch = 0 is a configuration error, rejected at construction —
    // not clamped, not a hang.
    ServerConfig degenerate = cfg;
    degenerate.max_batch = 0;
    EXPECT_THROW(b.server(degenerate), ConfigError);

    // Later batches dispatch no earlier than earlier ones.
    for (std::size_t i = 1; i < responses.size(); ++i) {
        EXPECT_GE(responses[i].dispatch_ns, responses[i - 1].enqueue_ns);
    }
}

TEST(Serve, WindowHoldsPartialBatchForLateArrival) {
    ServeBench b;
    ServerConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_window_ns = 1000.0;
    cfg.functional = false;
    auto server = b.server(cfg);

    auto make = [](uint64_t s, double arrival) {
        Request req;
        req.session_id = s;
        req.op = Op::SqrLinRS;
        req.cost_only = true;
        req.arrival_ns = arrival;
        return req;
    };
    // One early request, one inside the window, one far beyond it.
    server.submit(make(0, 0.0));
    server.submit(make(1, 500.0));
    server.submit(make(2, 50000.0));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 3u);
    // The first two share a batch (the window held for the late arrival);
    // the third dispatches alone.
    EXPECT_EQ(server.stats().batches, 2u);
    EXPECT_EQ(responses[0].dispatch_ns, responses[1].dispatch_ns);
    EXPECT_GE(responses[1].dispatch_ns, 500.0);
    EXPECT_GE(responses[2].dispatch_ns, 50000.0);
}

TEST(Serve, DeterministicPerSeedAcrossRuns) {
    ServeBench b;
    auto run_once = [&] {
        ServerConfig cfg;
        cfg.max_batch = 4;
        cfg.functional = false;
        auto server = b.server(cfg);
        std::mt19937_64 rng(7);
        double arrival = 0.0;
        for (uint64_t s = 0; s < 12; ++s) {
            Request req;
            req.session_id = s;
            req.op = static_cast<Op>(s % 5);
            req.cost_only = true;
            arrival += static_cast<double>(rng() % 100000);
            req.arrival_ns = arrival;
            server.submit(std::move(req));
        }
        server.run();
        return server.stats();
    };
    const auto first = run_once();
    const auto second = run_once();
    EXPECT_EQ(first.requests, second.requests);
    EXPECT_EQ(first.p50_ms, second.p50_ms);
    EXPECT_EQ(first.p95_ms, second.p95_ms);
    EXPECT_EQ(first.p99_ms, second.p99_ms);
    EXPECT_EQ(first.throughput_rps, second.throughput_rps);
    EXPECT_GT(first.requests, 0u);
    EXPECT_LE(first.p50_ms, first.p95_ms);
    EXPECT_LE(first.p95_ms, first.p99_ms);
    EXPECT_LE(first.p99_ms, first.max_ms);
}

TEST(Serve, MultiLaneThroughputBeatsSingleLane) {
    ServeBench b;
    auto run_with_lanes = [&](int queue_count) {
        ServerConfig cfg;
        cfg.max_batch = 8;
        cfg.functional = false;
        cfg.queue_count = queue_count;
        auto server = b.server(cfg);
        for (uint64_t s = 0; s < 16; ++s) {
            Request req;
            req.session_id = s;
            req.op = static_cast<Op>(s % 5);
            req.cost_only = true;
            server.submit(std::move(req));
        }
        server.run();
        return server.stats();
    };
    const auto single = run_with_lanes(1);
    const auto dual = run_with_lanes(0);  // one lane per tile: 2 on device1
    ASSERT_EQ(single.requests, 16u);
    ASSERT_EQ(dual.requests, 16u);
    EXPECT_GE(dual.throughput_rps / single.throughput_rps, 1.5);
    EXPECT_LE(dual.p99_ms, single.p99_ms);
}

}  // namespace
}  // namespace xehe::test
