// End-to-end wall-clock benchmark driver.
//
// A real client (encode, encrypt, serialize, chunk) talks to the real
// serving stack (admission: parse, analyze, compile; key acquisition;
// functional lane execution on the simulated GPU or the host backend;
// response serialization), and every response is loaded, decrypted,
// decoded and checked against a plaintext reference computed here.  The
// driver reports the wall-clock metrics a user of the service feels next
// to the simulated device metrics the paper's figures rest on, plus
// per-layer timings taken by wrapping the calls into each module.
//
// perfbench/run.py builds this program and is the entry point; it owns the
// command line contract, attaches units from BENCHMARK.json and prints the
// final result line.  This program prints human-readable lines followed by
// one JSON object on its last stdout line.
//
// Workloads (all closed loops: the server has no wall-clock arrival path,
// run() drains whatever was admitted):
//   routines_n32k  N=32768, L=8: one client, the five Section IV-C routines
//                  round-robin, one request in flight, shared tenant keys.
//   routines_n8k   the same trace at N=8192, L=3.
//   tenants_n4k    N=4096, L=3: ShardedServer (2 shards, one pool worker
//                  each), per-session keys under a tight key budget, skewed
//                  session popularity, client-built Op::Program circuits
//                  streamed as chunk frames, bursts drained by run().
//
// Determinism: each workload replays a seed-derived periodic job table
// (values, encryption seeds, routine/circuit, session), so the served
// ciphertexts of a run repeat bit-exactly per seed.  The simulated metrics
// and wire byte counts are taken over the fixed warm-up window, and
// precision is a minimum over a periodic sequence, so all three repeat
// exactly at a fixed seed however many requests the wall-clock phase fits.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ckks/encoder.h"
#include "he/analyze.h"
#include "he/compiler.h"
#include "ntt/ntt_gpu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/sharded_server.h"
#include "xehe/routines.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace xehe;
using Clock = std::chrono::steady_clock;

/// Fresh-ciphertext scale; also the scale server admission assumes for
/// client programs.
constexpr double kScale = 1099511627776.0;  // 2^40
/// A response verifying below this many bits of precision is a failure.
constexpr double kPrecisionFloorBits = 10.0;
/// Set-ups per run (setup_s is their median): at least kMinSetups, more
/// while they have taken under kSetupBudgetS, so a cheap set-up is
/// sampled often enough for a steady median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 4.0;
/// Span ring for the traced phase (sized so a traced phase never wraps).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// Nearest-rank percentile (the serving layer's definition).
double percentile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return obs::percentile(v, q);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Uniform double in [-1, 1) from raw engine bits (the engine's output is
/// fully specified by the standard, unlike the distributions).
double uniform_pm1(std::mt19937_64 &rng) {
    return static_cast<double>(rng() >> 11) * 0x1.0p-52 - 1.0;
}

uint64_t mix(uint64_t a, uint64_t b) {
    uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workload description
// ---------------------------------------------------------------------------

struct Spec {
    std::string name;
    bool tenants = false;     ///< ShardedServer + chunked client circuits
    std::size_t n = 0;
    std::size_t levels = 0;
    double tail_q = 0.9;      ///< request_wall_ms_tail percentile
    // routines: requests in the warm-up (and deterministic) window.
    std::size_t warmup_requests = 7;
    // tenants
    std::size_t sessions = 0;
    std::size_t budget_keysets = 0;  ///< resident keysets per shard
    std::size_t burst = 1;           ///< requests per run() drain
    std::size_t period_bursts = 1;   ///< distinct bursts; warm-up = one period
    std::size_t shards = 2;
};

bool make_spec(const std::string &name, bool tiny, Spec &spec) {
    spec.name = name;
    if (name == "routines_n32k" || name == "routines_n8k") {
        const bool big = name == "routines_n32k";
        spec.n = tiny ? 2048 : big ? 32768 : 8192;
        spec.levels = big ? 8 : 3;
        // request_wall_ms_tail: a percentile with at least ten samples
        // beyond it in a 25 s run (~65 and ~600 requests).  At N=8K that
        // is p95, not the highest such (p98): p98 swung up to 24% from run
        // to run on shared virtual CPUs.
        spec.tail_q = big ? 0.8 : 0.95;
        return true;
    }
    if (name == "tenants_n4k") {
        spec.tenants = true;
        spec.n = tiny ? 1024 : 4096;
        spec.levels = 3;
        spec.tail_q = 0.99;  // ~1300 requests in a 25 s run
        spec.sessions = tiny ? 8 : 32;
        spec.budget_keysets = tiny ? 2 : 4;
        spec.burst = tiny ? 8 : 16;
        spec.period_bursts = tiny ? 2 : 6;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Per-layer samples, timed from outside by wrapping module calls
// ---------------------------------------------------------------------------

struct LayerSamples {
    std::vector<double> encode, encrypt, decrypt, decode;  ///< ms per call
    std::vector<double> serialize, load, submit, respond;  ///< ms per request
    std::vector<double> run;            ///< run() wall per request, ms
    std::vector<double> wall;           ///< request round trip, ms
    double run_wall_ms = 0.0;           ///< sum over run() calls
    double run_sim_ms = 0.0;            ///< simulated span of those calls
    std::size_t runs = 0;
    std::size_t requests = 0;
    std::size_t chunked = 0;
    double request_bytes = 0.0;
    double response_bytes = 0.0;
    double frames = 0.0;
};

/// One timed call into a layer: a wall-clock sample (divided over `calls`
/// when the block covers several) plus an obs span, recorded only while
/// tracing is on, over the same interval.
class Step {
public:
    Step(const char *name, obs::Category category, std::vector<double> &sink,
         std::size_t calls = 1)
        : span_(name, category), sink_(&sink),
          calls_(static_cast<double>(std::max<std::size_t>(calls, 1))) {}
    ~Step() { sink_->push_back(ms_since(start_) / calls_); }
    Step(const Step &) = delete;
    Step &operator=(const Step &) = delete;

private:
    obs::Span span_;
    std::vector<double> *sink_;
    double calls_;
    Clock::time_point start_ = Clock::now();
};

struct PhaseCount {
    std::size_t attempted = 0;
    std::size_t succeeded = 0;
    std::size_t failed = 0;
};

// ---------------------------------------------------------------------------
// Jobs: one request of the periodic trace plus its plaintext reference
// ---------------------------------------------------------------------------

struct Operand {
    std::vector<double> values;
    double scale = kScale;
    uint64_t enc_seed = 0;
};

struct Job {
    uint64_t session = 0;
    serve::Op op = serve::Op::Program;
    int rotate_step = 0;
    serve::BackendHint hint = serve::BackendHint::Auto;
    std::size_t circuit = 0;  ///< Op::Program: index into the circuits
    /// Simulated arrival after the previous drain completed.
    double arrival_offset_ns = 0.0;
    std::vector<Operand> operands;
    std::vector<double> expected;
};

std::vector<double> rotated(const std::vector<double> &v, int step) {
    std::vector<double> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        out[i] = v[(i + static_cast<std::size_t>(step)) % v.size()];
    }
    return out;
}

Operand make_operand(std::size_t slots, uint64_t seed, double scale) {
    std::mt19937_64 rng(seed);
    Operand op;
    op.values.resize(slots);
    for (auto &v : op.values) {
        v = uniform_pm1(rng);
    }
    op.scale = scale;
    op.enc_seed = mix(seed, 0xE4C);
    return op;
}

/// Client-built circuits of the tenants workload, with their plaintext
/// references.  Every input is a fresh ciphertext at kScale and the maximum
/// level.
struct Circuit {
    he::Program program;
    std::vector<double> (*reference)(const std::vector<Operand> &);
};

std::vector<double> rotsum_reference(const std::vector<Operand> &ops) {
    const auto &a = ops[0].values;
    const auto r1 = rotated(a, 1);
    const auto r2 = rotated(a, 2);
    std::vector<double> e(a.size());
    for (std::size_t i = 0; i < e.size(); ++i) {
        e[i] = a[i] + r1[i] + r2[i];
    }
    return e;
}

std::vector<double> mac2_reference(const std::vector<Operand> &ops) {
    std::vector<double> e(ops[0].values.size());
    for (std::size_t i = 0; i < e.size(); ++i) {
        e[i] = ops[0].values[i] * ops[1].values[i] +
               ops[2].values[i] * ops[3].values[i];
    }
    return e;
}

std::vector<double> sqrot_reference(const std::vector<Operand> &ops) {
    auto e = rotated(ops[0].values, 1);
    for (auto &v : e) {
        v *= v;
    }
    return e;
}

std::vector<Circuit> tenant_circuits() {
    std::vector<Circuit> out;
    {
        // Rotate-and-sum: key switching only; cheap enough for the host.
        he::ProgramBuilder b(1);
        const auto a = b.input(0);
        b.output(b.add(b.add(a, b.rotate(a, 1)), b.rotate(a, 2)));
        out.push_back({b.build(), rotsum_reference});
    }
    {
        // Two-term inner product: a*b + c*d, relinearized and rescaled.
        he::ProgramBuilder b(4);
        const auto ab = b.multiply(b.input(0), b.input(1));
        const auto cd = b.multiply(b.input(2), b.input(3));
        b.output(b.rescale(b.relinearize(b.add(ab, cd))));
        out.push_back({b.build(), mac2_reference});
    }
    {
        // Square, rescale, then rotate: a[i+1]^2.
        he::ProgramBuilder b(1);
        b.output(b.rotate(
            b.rescale(b.relinearize(b.square(b.input(0)))), 1));
        out.push_back({b.build(), sqrot_reference});
    }
    return out;
}

/// The five routines round-robin from a seed-chosen offset; one job per
/// routine, so request i replays job (offset + i) mod 5.
std::vector<Job> routine_jobs(const ckks::CkksContext &ctx, uint64_t seed,
                              int rotate_step) {
    const std::size_t slots = ctx.slots();
    // MulLinRSModSwAdd adds c onto the rescaled product, adopting its
    // scale; encoding c at that scale makes the reference a*b + c.
    const double prod_scale =
        kScale * kScale /
        static_cast<double>(ctx.key_modulus()[ctx.max_level() - 1].value());
    std::vector<Job> jobs;
    for (std::size_t r = 0; r < 5; ++r) {
        Job job;
        job.op = static_cast<serve::Op>(r);
        job.rotate_step = rotate_step;
        const std::size_t arity = serve::op_arity(job.op);
        for (std::size_t k = 0; k < arity; ++k) {
            const double scale =
                job.op == serve::Op::MulLinRSModSwAdd && k == 2 ? prod_scale
                                                                : kScale;
            job.operands.push_back(
                make_operand(slots, mix(seed, 16 * r + k), scale));
        }
        const auto &a = job.operands[0].values;
        job.expected.resize(slots);
        for (std::size_t i = 0; i < slots; ++i) {
            switch (job.op) {
                case serve::Op::MulLin:
                case serve::Op::MulLinRS:
                    job.expected[i] = a[i] * job.operands[1].values[i];
                    break;
                case serve::Op::SqrLinRS:
                    job.expected[i] = a[i] * a[i];
                    break;
                case serve::Op::MulLinRSModSwAdd:
                    job.expected[i] = a[i] * job.operands[1].values[i] +
                                      job.operands[2].values[i];
                    break;
                default:
                    break;
            }
        }
        if (job.op == serve::Op::Rotate) {
            job.expected = rotated(a, rotate_step);
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/// The tenants trace: period_bursts * burst jobs.  Session popularity is
/// Zipf(1) by session id, as exact per-period counts (largest remainder);
/// jobs are dealt round-robin into bursts so every burst has the same mix,
/// circuits cycle within a burst, and the rotate-and-sum circuit is pinned
/// to the host backend (BackendHint::Host).  The seed drives the values,
/// the keys and the session order within each burst, not the mix: a seeded
/// mix moved simulated throughput by up to 30% from seed to seed.
std::vector<Job> tenant_jobs(const Spec &spec, std::size_t slots,
                             const std::vector<Circuit> &circuits,
                             uint64_t seed) {
    const std::size_t count = spec.period_bursts * spec.burst;
    double harmonic = 0.0;
    for (std::size_t k = 0; k < spec.sessions; ++k) {
        harmonic += 1.0 / static_cast<double>(k + 1);
    }
    std::vector<std::size_t> quota(spec.sessions);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::size_t assigned = 0;
    for (std::size_t k = 0; k < spec.sessions; ++k) {
        const double exact = static_cast<double>(count) /
                             (static_cast<double>(k + 1) * harmonic);
        quota[k] = static_cast<std::size_t>(exact);
        assigned += quota[k];
        remainders.emplace_back(-(exact - static_cast<double>(quota[k])), k);
    }
    std::sort(remainders.begin(), remainders.end());
    for (std::size_t i = 0; assigned < count; ++i, ++assigned) {
        ++quota[remainders[i].second];
    }
    std::vector<uint64_t> sessions;
    for (std::size_t k = 0; k < spec.sessions; ++k) {
        sessions.insert(sessions.end(), quota[k], k);
    }

    std::mt19937_64 rng(mix(seed, 0x7E4A));
    std::vector<Job> jobs(count);
    for (std::size_t b = 0; b < spec.period_bursts; ++b) {
        std::vector<std::size_t> order(spec.burst);
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng() % i]);
        }
        for (std::size_t r = 0; r < spec.burst; ++r) {
            const std::size_t dealt = r * spec.period_bursts + b;
            const std::size_t j = b * spec.burst + order[r];
            Job &job = jobs[j];
            job.session = sessions[dealt];
            job.circuit = r % circuits.size();
            job.hint = job.circuit == 0 ? serve::BackendHint::Host
                                        : serve::BackendHint::Auto;
            const he::Program &program = circuits[job.circuit].program;
            for (std::size_t k = 0; k < program.num_inputs; ++k) {
                job.operands.push_back(make_operand(
                    slots, mix(seed, 1000 + 8 * j + k), kScale));
            }
            job.expected = circuits[job.circuit].reference(job.operands);
        }
        // The burst arrives within a microsecond, in submission order and
        // well inside one admission window, so the seed moves simulated
        // latencies by nanoseconds without reshaping the batches.
        double arrival = 0.0;
        for (std::size_t r = 0; r < spec.burst; ++r) {
            arrival += 1.0 + static_cast<double>(rng() % 64);
            jobs[b * spec.burst + r].arrival_offset_ns = arrival;
        }
    }
    return jobs;
}

struct Verdict {
    bool ok = false;
    double bits = 0.0;
};

Verdict check(const std::vector<std::complex<double>> &got,
              const std::vector<double> &want) {
    if (got.size() < want.size()) {
        return {};
    }
    double err = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        err = std::max(err, std::abs(got[i] - want[i]));
    }
    if (!std::isfinite(err)) {
        return {};
    }
    const double bits = err > 0.0 ? -std::log2(err) : 64.0;
    return {bits >= kPrecisionFloorBits, bits};
}

// ---------------------------------------------------------------------------
// The client + server stack of one set-up
// ---------------------------------------------------------------------------

class Stack {
public:
    Stack(const Spec &spec, uint64_t seed)
        : spec_(spec),
          ctx_(ckks::EncryptionParameters::create(spec.n, spec.levels)),
          encoder_(ctx_) {
        const std::size_t sessions = spec.tenants ? spec.sessions : 1;
        std::vector<int> steps = {1, 2};
        if (!spec.tenants) {
            rotate_step_ = 1 + static_cast<int>(seed / 5 % 3);
            steps = {rotate_step_};
        }
        std::vector<ckks::RelinKeys> relin(sessions);
        std::vector<ckks::GaloisKeys> galois(sessions);
        for (std::size_t s = 0; s < sessions; ++s) {
            const auto t0 = Clock::now();
            ckks::KeyGenerator keygen(ctx_, mix(seed, 0xC0FFEE + s));
            secrets_.push_back(keygen.secret_key());
            relin[s] = keygen.create_relin_keys();
            galois[s] = keygen.create_galois_keys(steps);
            keygen_ms_.push_back(ms_since(t0));
            decryptors_.emplace_back(ctx_, keygen.secret_key());
        }

        if (spec.tenants) {
            circuits_ = tenant_circuits();
            for (const auto &c : circuits_) {
                circuit_bytes_.push_back(wire::serialize(c.program));
            }
            jobs_ = tenant_jobs(spec, ctx_.slots(), circuits_, seed);
            serve::ShardedConfig cfg;
            cfg.shard_count = spec.shards;
            cfg.credits_per_shard = std::max<std::size_t>(64, spec.burst);
            cfg.key_budget_bytes =
                spec.budget_keysets *
                serve::expanded_key_bytes(relin[0], galois[0]);
            cfg.pool_workers_per_shard = 1;
            sharded_ = std::make_unique<serve::ShardedServer>(
                ctx_, xgpu::device1(), core::GpuOptions{}, cfg);
            for (std::size_t s = 0; s < sessions; ++s) {
                sharded_->register_session_keys(s, relin[s], galois[s]);
            }
        } else {
            jobs_ = routine_jobs(ctx_, seed, rotate_step_);
            offset_ = seed % 5;
            pool_ = std::make_unique<xgpu::ThreadPool>(1);
            server_ = std::make_unique<serve::InferenceServer>(
                ctx_, xgpu::device1(), core::GpuOptions{},
                serve::ServerConfig{}, nullptr, pool_.get());
            server_->set_keys(std::move(relin[0]), std::move(galois[0]));
        }
    }

    const ckks::CkksContext &context() const noexcept { return ctx_; }
    const std::vector<double> &keygen_ms() const noexcept {
        return keygen_ms_;
    }
    const std::vector<Circuit> &circuits() const noexcept {
        return circuits_;
    }

    /// Requests one run() drains.
    std::size_t burst() const noexcept { return spec_.burst; }
    std::size_t warmup_bursts() const noexcept {
        return spec_.tenants ? spec_.period_bursts : spec_.warmup_requests;
    }

    serve::LatencyStats stats() const {
        return sharded_ ? sharded_->stats() : server_->stats();
    }

    /// Host threads the server's work runs on.
    unsigned threads() const {
        if (sharded_) {
            // Each shard drains on its own thread plus one pool worker.
            return static_cast<unsigned>(spec_.shards * 2);
        }
        return pool_->worker_count();
    }

    /// Sends burst number `b` of the trace through the stack, verifies
    /// every response, and accounts wall and per-layer samples.
    void serve_burst(std::size_t b, LayerSamples &layers, PhaseCount &count,
                     bool flip_first) {
        const std::size_t n = burst();
        std::vector<const Job *> jobs(n);
        for (std::size_t r = 0; r < n; ++r) {
            jobs[r] = &jobs_[spec_.tenants
                                 ? (b % spec_.period_bursts) * n + r
                                 : (offset_ + b) % jobs_.size()];
        }
        obs::Span burst_span(spec_.tenants ? "bench.burst" : "bench.request",
                             obs::Category::Other);
        std::vector<Clock::time_point> start(n);
        std::vector<std::size_t> ordinal(n);
        for (std::size_t r = 0; r < n; ++r) {
            ordinal[r] = ++requests_sent_;
            start[r] = Clock::now();
            send(*jobs[r], ordinal[r], layers);
        }

        std::vector<serve::Response> responses;
        {
            Step step("serve.run", obs::Category::Serve, layers.run, n);
            responses = sharded_ ? sharded_->run() : server_->run();
        }
        layers.run_wall_ms += layers.run.back() * static_cast<double>(n);
        ++layers.runs;
        double sim_lo = 0.0;
        double sim_hi = 0.0;
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const auto &resp = responses[i];
            sim_lo = i == 0 ? resp.enqueue_ns
                            : std::min(sim_lo, resp.enqueue_ns);
            sim_hi = std::max(sim_hi, resp.complete_ns);
        }
        layers.run_sim_ms += (sim_hi - sim_lo) * 1e-6;
        last_complete_ns_ = std::max(last_complete_ns_, sim_hi);

        // Responses come back per shard in arrival order, and a session
        // lives on one shard: match each session's responses to its
        // requests first-in first-out.
        std::vector<std::vector<uint8_t>> response_bytes(n);
        std::vector<bool> answered(n, false);
        {
            Step step("wire.respond", obs::Category::Wire, layers.respond,
                      n);
            for (const auto &resp : responses) {
                for (std::size_t r = 0; r < n; ++r) {
                    if (!answered[r] &&
                        jobs[r]->session == resp.session_id) {
                        answered[r] = true;
                        response_bytes[r] = wire::serialize(resp);
                        break;
                    }
                }
            }
        }
        for (std::size_t r = 0; r < n; ++r) {
            obs::ContextScope scope(0, ordinal[r]);
            ++count.attempted;
            const bool flip = flip_first && r == 0;
            const Verdict v = answered[r]
                                  ? receive(*jobs[r], response_bytes[r],
                                            layers, flip)
                                  : Verdict{};
            layers.wall.push_back(ms_since(start[r]));
            ++layers.requests;
            if (v.ok) {
                ++count.succeeded;
            } else {
                ++count.failed;
            }
            if (answered[r] && !flip) {
                min_bits_ = std::min(min_bits_, v.bits);
            }
        }
    }

    double min_bits() const noexcept { return min_bits_; }

private:
    /// Client side of one request: encode, encrypt, serialize (and chunk),
    /// then admission into the server.
    void send(const Job &job, std::size_t ordinal, LayerSamples &layers) {
        obs::ContextScope scope(0, ordinal);
        obs::Span span("bench.send", obs::Category::Other);
        const std::size_t k = job.operands.size();
        // Per-operand encryptors seeded from the job, so a replayed job
        // yields bit-identical ciphertexts (and results).
        std::vector<ckks::Encryptor> encryptors;
        encryptors.reserve(k);
        for (const Operand &op : job.operands) {
            encryptors.emplace_back(ctx_, ckks::PublicKey{},
                                    secrets_[job.session], op.enc_seed);
        }
        std::vector<ckks::Plaintext> plains;
        {
            Step step("ckks.encode", obs::Category::Other, layers.encode, k);
            for (const Operand &op : job.operands) {
                plains.push_back(encoder_.encode(
                    std::span<const double>(op.values), op.scale));
            }
        }
        std::vector<ckks::Ciphertext> cts;
        {
            Step step("ckks.encrypt", obs::Category::Other, layers.encrypt,
                      k);
            for (std::size_t i = 0; i < k; ++i) {
                cts.push_back(encryptors[i].encrypt_symmetric(plains[i]));
            }
        }
        serve::Request req;
        req.session_id = job.session;
        req.op = job.op;
        req.rotate_step = job.rotate_step;
        req.backend = job.hint;
        // Closed loop: a request arrives when the previous drain finished
        // on the simulated clock (strictly increasing within a burst,
        // which fixes the per-session order responses come back in).
        req.arrival_ns = last_complete_ns_ + job.arrival_offset_ns;
        std::vector<uint8_t> bytes;
        std::vector<std::vector<uint8_t>> frames;
        {
            Step step("wire.serialize", obs::Category::Wire,
                      layers.serialize);
            for (const auto &ct : cts) {
                req.inputs.push_back(wire::serialize(ct));
            }
            if (sharded_) {
                req.program = circuit_bytes_[job.circuit];
                frames = serve::chunk_request(req, ++stream_id_);
            } else {
                bytes = wire::serialize(req);
            }
        }
        {
            Step step("serve.submit", obs::Category::Serve, layers.submit);
            if (sharded_) {
                for (const auto &frame : frames) {
                    sharded_->submit_chunk(frame);
                }
            } else {
                server_->submit(bytes);
            }
        }
        if (sharded_) {
            ++layers.chunked;
            layers.frames += static_cast<double>(frames.size());
            for (const auto &frame : frames) {
                layers.request_bytes += static_cast<double>(frame.size());
            }
        } else {
            layers.frames += 1.0;
            layers.request_bytes += static_cast<double>(bytes.size());
        }
    }

    /// Client side of one response: load, decrypt, decode, check.
    Verdict receive(const Job &job, std::vector<uint8_t> &bytes,
                    LayerSamples &layers, bool flip) {
        obs::Span span("bench.receive", obs::Category::Other);
        layers.response_bytes += static_cast<double>(bytes.size());
        ckks::Ciphertext ct;
        try {
            Step step("wire.load", obs::Category::Wire, layers.load);
            serve::Response resp = serve::load_response(bytes);
            if (!resp.ok) {
                std::fprintf(stderr, "request failed: %s: %s\n",
                             serve::status_name(resp.code),
                             resp.error.c_str());
                return {};
            }
            if (flip && !resp.result.empty()) {
                resp.result[resp.result.size() / 2] ^= 0x01;
            }
            ct = wire::load_ciphertext(resp.result, ctx_);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "response rejected: %s\n", e.what());
            return {};
        }
        ckks::Plaintext plain;
        {
            Step step("ckks.decrypt", obs::Category::Other, layers.decrypt);
            plain = decryptors_[job.session].decrypt(ct);
        }
        std::vector<std::complex<double>> values;
        {
            Step step("ckks.decode", obs::Category::Other, layers.decode);
            values = encoder_.decode(plain);
        }
        obs::Span check_span("bench.check", obs::Category::Other);
        return check(values, job.expected);
    }

    const Spec spec_;
    ckks::CkksContext ctx_;
    ckks::CkksEncoder encoder_;
    std::vector<ckks::SecretKey> secrets_;
    std::vector<ckks::Decryptor> decryptors_;
    std::vector<double> keygen_ms_;
    std::vector<Circuit> circuits_;
    std::vector<std::vector<uint8_t>> circuit_bytes_;
    std::vector<Job> jobs_;
    int rotate_step_ = 1;
    std::size_t offset_ = 0;
    /// Kernel executor of the routines server: the calling thread plus
    /// one worker.  On shared virtual CPUs every extra worker is another
    /// thread each kernel launch may wait on while it is descheduled,
    /// which widened the run-to-run spread past the metric bounds.
    std::unique_ptr<xgpu::ThreadPool> pool_;
    std::unique_ptr<serve::InferenceServer> server_;
    std::unique_ptr<serve::ShardedServer> sharded_;
    double last_complete_ns_ = 0.0;
    uint64_t stream_id_ = 0;
    std::size_t requests_sent_ = 0;
    double min_bits_ = 64.0;
};

// ---------------------------------------------------------------------------
// Direct per-layer probes (traced runs only)
// ---------------------------------------------------------------------------

template <typename F>
double median_us(int reps, F &&f) {
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        f();
        us.push_back(ms_since(t0) * 1e3);
    }
    return median(std::move(us));
}

struct Probes {
    double ntt_forward_us = 0.0;
    double ntt_inverse_us = 0.0;
    double gpu_forward_ms = 0.0;
    double gpu_forward_sim_us = 0.0;
    double analyze_us = 0.0;
    double compile_us = 0.0;
};

Probes run_probes(const Stack &stack, const Spec &spec) {
    const ckks::CkksContext &ctx = stack.context();
    Probes p;
    std::mt19937_64 rng(7);
    const uint64_t q = ctx.key_modulus()[0].value();
    std::vector<uint64_t> limb(ctx.n());
    for (auto &w : limb) {
        w = rng() % q;
    }
    p.ntt_forward_us = median_us(21, [&] {
        ntt::ntt_forward(limb, ctx.table(0));
    });
    p.ntt_inverse_us = median_us(21, [&] {
        ntt::ntt_inverse(limb, ctx.table(0));
    });

    // One functional GpuNtt::forward over a fresh ciphertext's limbs
    // (2 polys x L primes), on a queue with the evaluator's NTT config.
    {
        const core::GpuOptions opts;
        ntt::NttConfig cfg;
        cfg.variant = opts.ntt_variant;
        cfg.slm_block = opts.slm_block;
        cfg.wg_size = opts.wg_size;
        xgpu::ThreadPool pool(1);  // the workloads' executor width
        xgpu::Queue queue(xgpu::device1(), {}, &pool);
        ntt::GpuNtt gpu(queue, cfg);
        const std::size_t levels = ctx.max_level();
        std::vector<uint64_t> data(2 * levels * ctx.n());
        for (std::size_t b = 0; b < 2 * levels; ++b) {
            const uint64_t qb = ctx.key_modulus()[b % levels].value();
            for (std::size_t k = 0; k < ctx.n(); ++k) {
                data[b * ctx.n() + k] = rng() % qb;
            }
        }
        std::vector<double> wall_ms;
        for (int i = 0; i < 7; ++i) {
            const auto t0 = Clock::now();
            p.gpu_forward_sim_us = gpu.forward(data, 2, ctx.tables(levels)) *
                                   1e-3;
            wall_ms.push_back(ms_since(t0));
        }
        p.gpu_forward_ms = median(std::move(wall_ms));
    }

    // Admission analyzer and compiler on the workload's circuits, in the
    // keyless admission configuration the server front door uses.
    std::vector<const he::Program *> programs;
    if (spec.tenants) {
        for (const auto &c : stack.circuits()) {
            programs.push_back(&c.program);
        }
    } else {
        for (const core::Routine r : core::kAllRoutines) {
            programs.push_back(&core::routine_program(r));
        }
    }
    he::AnalyzerOptions aopts;
    aopts.assume_alignment = true;
    aopts.assume_validated = true;
    aopts.errors_only = true;
    const he::ProgramAnalyzer analyzer(ctx, aopts);
    he::InputFacts facts;
    facts.level = ctx.max_level();
    he::CompilerOptions copts;
    copts.input_level = ctx.max_level();
    copts.input_scale = kScale;
    const he::ProgramCompiler compiler(ctx, copts);
    std::vector<double> analyze_us;
    std::vector<double> compile_us;
    std::size_t sink = 0;
    for (const he::Program *program : programs) {
        analyze_us.push_back(median_us(201, [&] {
            sink += analyzer.analyze(*program, facts).ok() ? 1 : 0;
        }));
        compile_us.push_back(median_us(51, [&] {
            sink += compiler.compile(*program).program.nodes.size();
        }));
    }
    p.analyze_us = median(std::move(analyze_us));
    p.compile_us = median(std::move(compile_us));
    if (sink == 0) {
        std::fprintf(stderr, "probe circuits produced nothing\n");
    }
    return p;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class JsonOut {
public:
    void key(const std::string &k) {
        sep();
        out_ << '"' << k << "\": ";
        fresh_ = true;
    }
    void num(const std::string &k, double v) {
        key(k);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        out_ << buf;
        fresh_ = false;
    }
    void str(const std::string &k, const std::string &v) {
        key(k);
        out_ << '"' << v << '"';
        fresh_ = false;
    }
    void boolean(const std::string &k, bool v) {
        key(k);
        out_ << (v ? "true" : "false");
        fresh_ = false;
    }
    void open(const std::string &k) {
        if (!k.empty()) {
            key(k);
        } else {
            sep();
        }
        out_ << '{';
        fresh_ = true;
    }
    void close() {
        out_ << '}';
        fresh_ = false;
    }
    void phase(const std::string &k, const PhaseCount &c) {
        open(k);
        num("attempted", static_cast<double>(c.attempted));
        num("succeeded", static_cast<double>(c.succeeded));
        num("failed", static_cast<double>(c.failed));
        close();
    }
    std::string text() const { return out_.str(); }

private:
    void sep() {
        if (!fresh_) {
            out_ << ", ";
        }
    }
    std::ostringstream out_;
    bool fresh_ = true;
};

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool flip = false;
    std::string trace_out;
};

bool parse_args(int argc, char **argv, Args &args) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            args.seed = std::stoull(argv[++i]);
        } else if (a == "--seconds" && has_value) {
            args.seconds = std::stod(argv[++i]);
        } else if (a == "--trace" && has_value) {
            args.trace = std::string(argv[++i]) != "0";
        } else if (a == "--trace-out" && has_value) {
            args.trace_out = argv[++i];
        } else if (a == "--tiny") {
            args.tiny = true;
        } else if (a == "--flip-result-byte") {
            args.flip = true;
        } else {
            return false;
        }
    }
    return !args.workload.empty() && args.seconds > 0.0;
}

/// Runs bursts until `seconds` of wall time have passed (at least one).
void run_phase(Stack &stack, std::size_t &next_burst, double seconds,
               LayerSamples &layers, PhaseCount &count, bool flip) {
    const auto t0 = Clock::now();
    bool first = true;
    do {
        stack.serve_burst(next_burst++, layers, count, flip && first);
        first = false;
    } while (ms_since(t0) < seconds * 1e3);
}

struct RegistryCounts {
    double cache_hits = 0.0;
    double compiled = 0.0;
};

RegistryCounts registry_counts() {
    auto &reg = obs::Registry::global();
    return {static_cast<double>(reg.counter("serve.program_cache_hits")
                                    .value()),
            static_cast<double>(reg.counter("compile.programs").value())};
}

}  // namespace

int main(int argc, char **argv) {
    Args args;
    Spec spec;
    if (!parse_args(argc, argv, args) ||
        !make_spec(args.workload, args.tiny, spec)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload "
                     "<routines_n32k|routines_n8k|tenants_n4k> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-out <path>] "
                     "[--tiny] [--flip-result-byte]\n");
        return 2;
    }

    // --- set-up, several times: setup_s is the median ------------------
    PhaseCount warmup;
    std::vector<double> setup_s;
    std::vector<double> keygen_ms;
    std::unique_ptr<Stack> stack;
    LayerSamples window;  // the last set-up's warm-up: deterministic
    serve::LatencyStats sim;
    double setup_total_s = 0.0;
    while (setup_s.size() < kMinSetups ||
           (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
        stack.reset();
        window = LayerSamples{};
        const auto t0 = Clock::now();
        stack = std::make_unique<Stack>(spec, args.seed);
        for (std::size_t b = 0; b < stack->warmup_bursts(); ++b) {
            stack->serve_burst(b, window, warmup, false);
        }
        setup_s.push_back(ms_since(t0) * 1e-3);
        setup_total_s += setup_s.back();
        const auto &kg = stack->keygen_ms();
        keygen_ms.insert(keygen_ms.end(), kg.begin(), kg.end());
        sim = stack->stats();
    }
    std::size_t next_burst = stack->warmup_bursts();

    // --- timed phase (untraced); a traced run splits its time with a
    // traced phase so both modes measure for the same wall time ---------
    const double timed_seconds = args.trace ? args.seconds / 2 : args.seconds;
    const serve::LatencyStats before = stack->stats();
    const RegistryCounts reg_before = registry_counts();
    PhaseCount timed;
    LayerSamples layers;
    const auto t_timed = Clock::now();
    run_phase(*stack, next_burst, timed_seconds, layers, timed, args.flip);
    const double timed_wall_s = ms_since(t_timed) * 1e-3;
    const serve::LatencyStats after = stack->stats();
    const RegistryCounts reg_after = registry_counts();

    PhaseCount traced;
    LayerSamples traced_layers;
    Probes probes;
    std::string trace_error;
    std::size_t trace_spans = 0;
    std::size_t trace_dropped = 0;
    if (args.trace) {
        auto &recorder = obs::TraceRecorder::instance();
        recorder.enable(kTraceCapacity);
        if (!obs::tracing_enabled()) {
            trace_error = "tracing compiled out (XEHE_OBS=OFF)";
        }
        run_phase(*stack, next_burst, args.seconds / 2, traced_layers,
                  traced, false);
        recorder.disable();
        trace_spans = recorder.size();
        trace_dropped = recorder.dropped();
        if (trace_error.empty()) {
            const std::string text = obs::chrome_trace_to_string();
            trace_error = obs::check_chrome_trace(text);
            if (trace_error.empty() && !args.trace_out.empty()) {
                std::ofstream out(args.trace_out);
                out << text;
                if (!out.good()) {
                    trace_error = "cannot write " + args.trace_out;
                }
            }
        }
        probes = run_probes(*stack, spec);
    }

    // --- metrics ---------------------------------------------------------
    const std::size_t attempted =
        warmup.attempted + timed.attempted + traced.attempted;
    const std::size_t failed = warmup.failed + timed.failed + traced.failed;
    const double served = static_cast<double>(timed.succeeded);
    const std::size_t samples = layers.wall.size();
    const std::size_t beyond = static_cast<std::size_t>(std::floor(
        (1.0 - spec.tail_q) * static_cast<double>(samples)));
    const double wall_p50 = median(layers.wall);

    const double req_delta =
        static_cast<double>(after.requests - before.requests);
    const double hits = static_cast<double>(after.keys.hits -
                                            before.keys.hits);
    const double misses = static_cast<double>(after.keys.misses -
                                              before.keys.misses);
    const double evictions = static_cast<double>(after.keys.evictions -
                                                 before.keys.evictions);
    const double host = static_cast<double>(after.host_requests -
                                            before.host_requests);
    const double cache_hits = reg_after.cache_hits - reg_before.cache_hits;
    const double compiled = reg_after.compiled - reg_before.compiled;
    auto &reg = obs::Registry::global();
    const double window_requests = static_cast<double>(window.requests);

    struct Metric {
        const char *name;
        double value;
    };
    const Metric end_to_end[] = {
        {"request_wall_ms_p50", wall_p50},
        {"request_wall_ms_tail", percentile(layers.wall, spec.tail_q)},
        {"throughput_rps", served / timed_wall_s},
        {"sim_request_ms_p50", sim.p50_ms},
        {"sim_throughput_rps", sim.throughput_rps},
        {"precision_bits", stack->min_bits()},
        {"success_rate",
         ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted))},
        {"setup_s", median(setup_s)},
        {"peak_rss_mb", [] {
             rusage usage{};
             getrusage(RUSAGE_SELF, &usage);
             return static_cast<double>(usage.ru_maxrss) / 1024.0;
         }()},
    };
    const Metric per_layer[] = {
        {"ckks.encode_ms", median(layers.encode)},
        {"ckks.encrypt_ms", median(layers.encrypt)},
        {"ckks.decrypt_ms", median(layers.decrypt)},
        {"ckks.decode_ms", median(layers.decode)},
        {"ckks.keygen_ms", median(keygen_ms)},
        {"ntt.ref_forward_us", probes.ntt_forward_us},
        {"ntt.ref_inverse_us", probes.ntt_inverse_us},
        {"ntt.gpu_forward_ms", probes.gpu_forward_ms},
        {"ntt.gpu_forward_sim_us", probes.gpu_forward_sim_us},
        {"wire.request_bytes", ratio(window.request_bytes, window_requests)},
        {"wire.response_bytes",
         ratio(window.response_bytes, window_requests)},
        {"wire.chunk_frames", ratio(window.frames, window_requests)},
        {"wire.serialize_ms", median(layers.serialize)},
        {"wire.load_ms", median(layers.load)},
        {"serve.submit_ms", median(layers.submit)},
        {"serve.run_ms", median(layers.run)},
        {"serve.host_share", ratio(host, req_delta)},
        {"serve.batches",
         ratio(static_cast<double>(after.batches - before.batches),
               static_cast<double>(layers.runs))},
        {"serve.wall_per_sim", ratio(layers.run_wall_ms, layers.run_sim_ms)},
        {"keys.hit_ratio", ratio(hits, hits + misses)},
        {"keys.misses", ratio(misses, req_delta)},
        {"keys.evictions", ratio(evictions, req_delta)},
        {"keys.reexpand_ms",
         ratio(after.keys.reexpand_ms - before.keys.reexpand_ms, misses)},
        {"keys.peak_resident_bytes",
         static_cast<double>(after.keys.peak_resident_bytes)},
        {"he.analyze_us", probes.analyze_us},
        {"he.compile_us", probes.compile_us},
        {"he.compile_cache_hit_ratio", ratio(cache_hits,
                                             cache_hits + compiled)},
        // Busy lane time over lane capacity (makespan x tiles), from the
        // gauges the last stats() call published (one shard's, when
        // sharded).
        {"xgpu.sim_busy_share",
         ratio(reg.gauge("xgpu.busy_ns").value(),
               reg.gauge("xgpu.makespan_ns").value() *
                   static_cast<double>(xgpu::device1().tiles))},
        {"xgpu.cache_peak_bytes",
         reg.gauge("xgpu.cache.peak_live_bytes").value()},
        {"obs.trace_overhead",
         args.trace ? ratio(median(traced_layers.wall), wall_p50) - 1.0
                    : 0.0},
    };

    // --- human-readable report -------------------------------------------
    std::printf("workload %s  seed %llu  N=%zu L=%zu  threads %u\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                spec.n, spec.levels, stack->threads());
    const auto phase_line = [](const char *name, const PhaseCount &c) {
        std::printf("  phase %-7s attempted %6zu  succeeded %6zu  "
                    "failed %zu\n",
                    name, c.attempted, c.succeeded, c.failed);
    };
    phase_line("warmup", warmup);
    phase_line("timed", timed);
    if (args.trace) {
        phase_line("traced", traced);
    }
    std::printf("  error_rate %.6f  tail = p%g over %zu samples (%zu beyond)\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                spec.tail_q * 100.0, samples, beyond);
    if (args.trace) {
        std::printf("  trace: %zu spans (%zu dropped)%s%s\n", trace_spans,
                    trace_dropped, trace_error.empty() ? "" : "  ERROR: ",
                    trace_error.c_str());
    }

    // --- machine-readable result (last line) -----------------------------
    const bool correct = failed == 0 && attempted > 0 && trace_error.empty();
    JsonOut out;
    out.open("");
    out.str("workload", spec.name);
    out.boolean("correct", correct);
    out.num("attempted", static_cast<double>(attempted));
    out.num("failed", static_cast<double>(failed));
    out.open("phases");
    out.phase("warmup", warmup);
    out.phase("timed", timed);
    if (args.trace) {
        out.phase("traced", traced);
    }
    out.close();
    out.open("end_to_end");
    for (const Metric &m : end_to_end) {
        out.num(m.name, m.value);
    }
    out.close();
    out.open("per_layer");
    for (const Metric &m : per_layer) {
        out.num(m.name, m.value);
    }
    out.close();
    out.open("tail");
    out.num("percentile", spec.tail_q * 100.0);
    out.num("samples", static_cast<double>(samples));
    out.num("beyond", static_cast<double>(beyond));
    out.close();
    out.open("shares");
    out.num("key_miss", ratio(misses, hits + misses));
    out.num("host_routed", ratio(host, req_delta));
    out.num("chunked", ratio(static_cast<double>(layers.chunked),
                             static_cast<double>(layers.requests)));
    out.num("compile_cache_hit", ratio(cache_hits, cache_hits + compiled));
    out.close();
    out.open("build");
    out.num("threads", stack->threads());
    out.str("compiler", PERFBENCH_COMPILER);
    out.str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(XEHE_OBS_DISABLED)
    out.boolean("xehe_obs", false);
#else
    out.boolean("xehe_obs", true);
#endif
    out.close();
    out.str("trace_file", args.trace && trace_error.empty()
                              ? args.trace_out
                              : std::string());
    out.close();
    std::printf("%s\n", out.text().c_str());
    return 0;
}
