// Request-level serving frontend over the batched evaluator pool: the
// encode -> encrypt -> serialize -> dispatch -> respond pipeline that turns
// the multi-queue scheduler into a client/server system.
//
// Clients submit wire-serialized Requests (monolithic envelopes or bounded
// chunk-frame streams, reassembled by the shared serve::ChunkAssembler);
// the server parses them into an admission queue, forms dynamic batches
// (dispatch when the batch fills or when the admission window expires),
// deserializes the operand ciphertexts, and runs each request on its
// session's lane of a GpuEvaluatorPool — so one session's chain stays
// in-order while distinct sessions overlap across tiles (Section III-D
// applied per request).  Requests routed to (or falling back to) the host
// backend run on simulated host lanes with the same placement.  Either
// way one execution path serves them through he::Backend; only the lane
// clock and the kernels that touch device memory differ.  Per-session
// evaluation keys live behind a serve::KeyManager: a byte-budgeted LRU
// cache of expanded keysets over a seed-compressed cold store, so sessions
// may far outnumber resident keys.  Every response carries
// enqueue/dispatch/complete timestamps off the simulated clock; the server
// aggregates them (serve::LatencyLog) into p50/p95/p99 latency and
// throughput, the serving metrics makespan-only reporting cannot express.
#pragma once

#include <memory>
#include <string>

#include "he/compiler.h"
#include "he/registry.h"
#include "serve/key_manager.h"
#include "serve/protocol.h"
#include "xehe/evaluator_pool.h"

namespace xehe::serve {

/// Typed rejection of an invalid serving configuration, raised at server
/// construction — a misconfigured server never comes up half-working.
class ConfigError : public std::invalid_argument {
public:
    explicit ConfigError(const std::string &what)
        : std::invalid_argument(what) {}
};

struct ServerConfig {
    /// Dispatch a batch as soon as this many requests are admitted (must
    /// be >= 1)...
    std::size_t max_batch = 8;
    /// ...or when the admission window expires with a partial batch
    /// (simulated ns).  Must be positive and finite.
    double batch_window_ns = 100000.0;
    /// Pool lanes: 0 = one per tile of the device, otherwise >= 1.
    int queue_count = 0;
    /// Execute kernels and return real results; false = cost-only (the
    /// N = 32K sweep operating point), responses carry no result bytes.
    bool functional = true;
    /// Compile client circuits on admission (he::ProgramCompiler:
    /// CSE/DCE, rescale planning, fusion pre-lowering) with a
    /// per-session compiled-program cache, so a session re-submitting
    /// the same circuit pays the compile once.  Off = interpret client
    /// programs exactly as shipped.
    bool compile_programs = true;
    /// Resident expanded-key budget for the per-session KeyManager
    /// (bytes, must be positive).  Ignored when a shared KeyManager is
    /// injected (the sharded server's configuration wins).
    std::size_t key_budget_bytes = std::size_t{64} << 20;
    /// Cost-model request routing: a BackendHint::Auto request whose
    /// estimated cost (canonical node count; matmul tiles; program size
    /// proxy) is <= this threshold runs on the host backend even when
    /// the GPU pool is up — small jobs skip the device queues.  0
    /// (default) disables cost routing.  Explicit per-request hints
    /// always win.
    std::size_t host_route_max_cost = 0;

    /// Throws ConfigError on any invalid field; called by every server
    /// constructor so an unvalidated config cannot reach the data path.
    void validate() const;
};

/// Latency/throughput aggregate over every request served so far.
struct LatencyStats {
    std::size_t requests = 0;   ///< completed successfully
    std::size_t failed = 0;     ///< includes overloaded rejections
    std::size_t overloaded = 0; ///< typed backpressure rejections
    /// Programs rejected by static verification (he::ProgramAnalyzer) —
    /// at admission or at compile time — before any lane dispatch, so
    /// no device time was charged.  Included in `failed`.
    std::size_t invalid_programs = 0;
    std::size_t batches = 0;
    /// Requests that wanted the GPU (Auto or Gpu hint) but ran on the
    /// host backend because no GPU backend was available — graceful
    /// degradation, not failure.
    std::size_t fallbacks = 0;
    /// Requests executed on the host backend for any reason (explicit
    /// hint, cost routing, or fallback).
    std::size_t host_requests = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double max_ms = 0.0;
    /// Serving window: first enqueue to last completion (simulated).
    double makespan_ms = 0.0;
    double throughput_rps = 0.0;  ///< requests / makespan
    /// Key-cache counters (see serve::KeyStats): how the resident-key
    /// budget behaved under this load.
    KeyStats keys;
};

/// Lifetime record of completed requests, summarized into the latency
/// half of LatencyStats — one implementation for InferenceServer and the
/// sharded front end's merged view.
class LatencyLog {
public:
    /// Records a successfully completed request.
    void record(const Response &resp);
    /// Sets `stats.requests`, the exact nearest-rank percentiles, mean,
    /// max, makespan (first enqueue to last completion) and throughput.
    void summarize(LatencyStats &stats) const;

private:
    std::vector<double> latencies_ns_;
    double first_enqueue_ns_ = -1.0;
    double last_complete_ns_ = 0.0;
};

class InferenceServer {
public:
    /// `key_manager` (optional) shares one key cache across servers — the
    /// sharded front end passes per-shard managers it owns; standalone
    /// servers build their own from `config.key_budget_bytes`.  `pool`
    /// (optional) pins simulated kernel execution to a private host
    /// thread pool so independent servers may run on concurrent threads
    /// (ThreadPool::parallel_for is not reentrant across callers).
    InferenceServer(const ckks::CkksContext &host, xgpu::DeviceSpec spec,
                    core::GpuOptions options, ServerConfig config = {},
                    std::shared_ptr<KeyManager> key_manager = nullptr,
                    xgpu::ThreadPool *pool = nullptr);

    /// Registers the shared tenant evaluation keys used by sessions that
    /// did not register their own (as in run_batch_serving: one scheme,
    /// many sessions).
    void set_keys(ckks::RelinKeys relin, ckks::GaloisKeys galois);

    /// Registers per-session keys with the KeyManager; they are held
    /// seed-compressed and expanded on demand under the byte budget.
    void register_session_keys(uint64_t session_id,
                               const ckks::RelinKeys &relin,
                               const ckks::GaloisKeys &galois);

    /// Lanes requests are distributed over: the GPU pool's lanes, or the
    /// same number of simulated host lanes when the server fell back.
    std::size_t lane_count() const noexcept { return host_lane_ns_.size(); }
    /// True when the server came up with a GPU evaluator pool; false when
    /// it degraded to host-only at construction.
    bool gpu_pool_active() const noexcept { return pool_ != nullptr; }
    const ServerConfig &config() const noexcept { return config_; }
    const KeyManager &key_manager() const noexcept { return *key_manager_; }

    /// Admission from bytes: parses the envelope and enqueues.  A buffer
    /// that fails validation is answered immediately with a failed
    /// Response instead of crashing the server.
    void submit(std::span<const uint8_t> request_bytes);
    /// Returns true when the request was enqueued for the next run();
    /// false when admission rejected it statically (Status::InvalidProgram,
    /// answered from the next run() without reaching a lane).
    bool submit(Request request);

    /// Admission from one chunk frame of a streamed request (see
    /// wire::chunk_message / serve::chunk_request).  Chunks of different
    /// streams may interleave; a stream whose frames arrive corrupted,
    /// out of order, or inconsistent is aborted with a failed Response
    /// and its partial state discarded.  The request enqueues when its
    /// last chunk completes the stream.
    void submit_chunk(std::span<const uint8_t> frame);

    /// Streams with at least one accepted chunk that have not completed.
    std::size_t open_streams() const noexcept {
        return chunks_.open_streams();
    }
    /// Requests admitted and not yet drained by run().
    std::size_t pending_requests() const noexcept { return pending_.size(); }

    /// Drains the admission queue through the lanes in dynamic batches and
    /// returns one Response per submitted request, in dispatch order
    /// (parse failures first).
    std::vector<Response> run();

    LatencyStats stats() const;

    /// Compiled-program cache occupancy and hit count (for tests and
    /// capacity monitoring).
    std::size_t program_cache_size() const noexcept {
        return compile_cache_.size();
    }
    std::size_t program_cache_hits() const noexcept {
        return compile_cache_.hits();
    }

private:
    /// Wraps execute_routed() in the request's trace identity: reserves a
    /// span id, makes it the thread's parent context (so lane, key,
    /// compile and kernel spans all link to it) and records the
    /// serve.request span over [enqueue, complete] once routing returns.
    Response execute(const Request &request, double dispatch_time);
    /// Routing: picks the lane kind (hint, cost routing, GPU
    /// availability) and retries on host when the GPU backend vanished.
    Response execute_routed(const Request &request, double dispatch_time);
    /// The one request-execution path: keys, program resolution,
    /// operands, run_program, result, Status mapping and the lane span,
    /// on the session's GPU pool lane or (`on_host`) its simulated host
    /// lane.  Per backend only the lane clock (device queue vs the
    /// synthetic host model) and the device-memory kernels (cost-only
    /// operands, the fused MatmulTile chain) differ.  A GPU lane throws
    /// he::BackendUnavailable before any side effect if the "gpu"
    /// registry entry vanished.
    Response execute_on(const Request &request, double dispatch_time,
                        bool on_host);
    /// Cheap routing cost proxy for BackendHint::Auto requests.
    std::size_t route_cost(const Request &request) const;
    /// The compiled form of a client program, from the per-session cache
    /// when the same session already shipped these exact bytes (compiled
    /// under the same assumed input level).
    std::shared_ptr<const he::Program> compiled_program(
        uint64_t session_id, std::span<const uint8_t> bytes,
        std::size_t input_level);
    /// Static admission gate for Op::Program requests: analyzes the
    /// shipped circuit (he::ProgramAnalyzer) against the level the
    /// server will execute it at.  Returns true to enqueue; on a
    /// must-fail verdict records a Status::InvalidProgram failure and
    /// returns false — the request never reaches a lane.  Undecodable
    /// program bytes admit (execution reproduces the legacy error).
    bool admit_program(const Request &request);
    void record_failure(uint64_t session_id, Status code, std::string error);

    const ckks::CkksContext *host_;
    ServerConfig config_;
    /// Null when the "gpu" backend was unavailable at construction: the
    /// server comes up host-only instead of failing, and every request
    /// that wanted the GPU is served on host and counted as a fallback.
    std::unique_ptr<core::GpuEvaluatorPool> pool_;
    /// The registry-constructed host backend every host-routed or
    /// fallen-back request executes on.
    he::BackendBundle host_bundle_;
    /// Per-lane simulated clocks for host execution (sized to
    /// lane_count(); all-zero and unused while requests run on the GPU).
    std::vector<double> host_lane_ns_;
    std::shared_ptr<KeyManager> key_manager_;
    ckks::RelinKeys relin_;
    ckks::GaloisKeys galois_;
    bool has_relin_ = false;
    bool has_galois_ = false;

    /// Compiled client circuits, scoped by session id and keyed by the
    /// shipped program bytes.
    he::CompileCache compile_cache_;

    /// In-flight chunked streams (see ChunkAssembler).
    ChunkAssembler chunks_;

    std::vector<Request> pending_;
    std::vector<Response> parse_failures_;
    double admission_clock_ns_ = 0.0;

    // Lifetime aggregates for stats().
    LatencyLog completed_;
    std::size_t failed_ = 0;
    std::size_t overloaded_ = 0;
    std::size_t invalid_programs_ = 0;
    std::size_t batches_ = 0;
    std::size_t fallbacks_ = 0;
    std::size_t host_requests_ = 0;

    // Lazily allocated Perfetto tracks: one for serve.request/serve.batch
    // spans, one per simulated host lane (GPU lanes use their queue's).
    uint32_t obs_serve_track_ = 0;
    std::vector<uint32_t> obs_host_lane_tracks_;
    uint32_t obs_serve_track();
    uint32_t obs_host_lane_track(std::size_t lane);
};

}  // namespace xehe::serve
