#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "he/analyze.h"
#include "he/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xehe::serve {

// The first five Op values name the Section IV-C routines in Routine
// order, so the server can map a fixed-function request straight onto its
// canonical program.
static_assert(static_cast<int>(Op::MulLin) ==
                  static_cast<int>(core::Routine::MulLin) &&
              static_cast<int>(Op::MulLinRS) ==
                  static_cast<int>(core::Routine::MulLinRS) &&
              static_cast<int>(Op::SqrLinRS) ==
                  static_cast<int>(core::Routine::SqrLinRS) &&
              static_cast<int>(Op::MulLinRSModSwAdd) ==
                  static_cast<int>(core::Routine::MulLinRSModSwAdd) &&
              static_cast<int>(Op::Rotate) ==
                  static_cast<int>(core::Routine::Rotate));

namespace {

constexpr double kScale = 1099511627776.0;  // 2^40

/// Deterministic host-lane time model: per program node, per RNS limb.
/// The host backend has no device clock, so host-executed requests charge
/// a synthetic, strictly positive lane time — batching, lane contention
/// and percentile behavior stay measurable (and deterministic) in
/// fallback mode.  Calibrated to sit above the simulated GPU on the same
/// work: falling back is graceful, not free.
constexpr double kHostNodeNs = 40000.0;
/// Host-side charge for re-staging an evicted expanded keyset (per byte).
constexpr double kHostKeyLoadNsPerByte = 0.25;

/// Cost-only operand: allocated at level, upload charged, never encrypted
/// (the paper's N = 32K operating point, as in run_batch_serving).
core::GpuCiphertext fabricate(core::GpuContext &gpu, std::size_t size,
                              std::size_t rns, double scale) {
    auto ct = core::allocate_ciphertext(gpu, size, rns, scale);
    gpu.queue().transfer(ct.all().size() * sizeof(uint64_t));
    return ct;
}

/// Registry handles cached once — the admission and dispatch paths must
/// not pay a registry name lookup per request.
struct ServeMetrics {
    obs::Counter &requests;
    obs::Counter &failed;
    obs::Counter &overloaded;
    obs::Counter &invalid_programs;
    obs::Counter &batches;
    obs::Counter &fallbacks;
    obs::Counter &host_requests;
    obs::Counter &program_cache_hits;
    obs::Counter &programs_compiled;
    obs::Histogram &latency_ns;

    static ServeMetrics &instance() {
        auto &reg = obs::Registry::global();
        static ServeMetrics m{
            reg.counter("serve.requests"),
            reg.counter("serve.failed"),
            reg.counter("serve.overloaded"),
            reg.counter("serve.invalid_programs"),
            reg.counter("serve.batches"),
            reg.counter("serve.fallbacks"),
            reg.counter("serve.host_requests"),
            reg.counter("serve.program_cache_hits"),
            reg.counter("compile.programs"),
            reg.histogram("serve.latency_ns"),
        };
        return m;
    }
};

}  // namespace

void ServerConfig::validate() const {
    if (max_batch == 0) {
        throw ConfigError("serve: max_batch must be >= 1");
    }
    if (!std::isfinite(batch_window_ns) || batch_window_ns <= 0.0) {
        throw ConfigError(
            "serve: batch_window_ns must be positive and finite");
    }
    if (queue_count < 0) {
        throw ConfigError("serve: queue_count must be >= 0 (0 = per tile)");
    }
    if (key_budget_bytes == 0) {
        throw ConfigError("serve: key_budget_bytes must be positive");
    }
}

InferenceServer::InferenceServer(const ckks::CkksContext &host,
                                 xgpu::DeviceSpec spec,
                                 core::GpuOptions options,
                                 ServerConfig config,
                                 std::shared_ptr<KeyManager> key_manager,
                                 xgpu::ThreadPool *pool)
    : host_(&host), config_((config.validate(), config)),
      key_manager_(key_manager
                       ? std::move(key_manager)
                       : std::make_shared<KeyManager>(
                             host, config.key_budget_bytes)) {
    he::BackendRegistry &registry = he::BackendRegistry::instance();
    if (registry.available("gpu")) {
        try {
            pool_ = std::make_unique<core::GpuEvaluatorPool>(
                host, spec, options, config_.queue_count, pool);
        } catch (const he::BackendUnavailable &) {
            // The probe passed but construction lost the race (or the
            // factory failed): degrade to host-only instead of refusing
            // to come up.
            pool_.reset();
        }
    }
    if (pool_) {
        pool_->set_functional(config_.functional);
        // Lane construction uploads NTT tables; serving time starts at
        // zero.
        pool_->scheduler().reset_clocks();
        host_lane_ns_.assign(pool_->lane_count(), 0.0);
    } else {
        // Host-only: mirror the lane topology the GPU pool would have
        // had, so session -> lane placement (and the multi-lane
        // throughput behavior) survives the fallback.
        const std::size_t lanes =
            config_.queue_count > 0
                ? static_cast<std::size_t>(config_.queue_count)
                : static_cast<std::size_t>(std::max(spec.tiles, 1));
        host_lane_ns_.assign(lanes, 0.0);
    }
    he::BackendEnv env;
    env.context = &host;
    host_bundle_ = registry.create("host", env);
}

void InferenceServer::set_keys(ckks::RelinKeys relin, ckks::GaloisKeys galois) {
    relin_ = std::move(relin);
    galois_ = std::move(galois);
    has_relin_ = !relin_.key.keys.empty();
    has_galois_ = !galois_.keys.empty();
}

void InferenceServer::register_session_keys(uint64_t session_id,
                                            const ckks::RelinKeys &relin,
                                            const ckks::GaloisKeys &galois) {
    key_manager_->register_session(session_id, relin, galois);
}

void InferenceServer::record_failure(uint64_t session_id, Status code,
                                     std::string error) {
    Response resp;
    resp.session_id = session_id;
    resp.ok = false;
    resp.code = code;
    resp.error = std::move(error);
    parse_failures_.push_back(std::move(resp));
    ++failed_;
    ServeMetrics::instance().failed.add();
    if (code == Status::Overloaded) {
        ++overloaded_;
        ServeMetrics::instance().overloaded.add();
    }
    if (code == Status::InvalidProgram) {
        ++invalid_programs_;
        ServeMetrics::instance().invalid_programs.add();
    }
}

void InferenceServer::submit(std::span<const uint8_t> request_bytes) {
    obs::Span span("wire.parse", obs::Category::Wire);
    if (span.active()) {
        span.set_detail(std::to_string(request_bytes.size()) + " bytes");
    }
    try {
        submit(load_request(request_bytes));
    } catch (const wire::WireError &e) {
        record_failure(0, Status::ParseError, e.what());
    }
}

bool InferenceServer::submit(Request request) {
    if (request.op == Op::Program && !admit_program(request)) {
        return false;
    }
    pending_.push_back(std::move(request));
    return true;
}

bool InferenceServer::admit_program(const Request &request) {
    obs::Span span("serve.analyze", obs::Category::Serve);
    he::Program program;
    try {
        program = he::load_program(request.program, *host_);
    } catch (const std::exception &) {
        // Undecodable program bytes: admit, so the execution path
        // reproduces the legacy wire-error response unchanged.
        return true;
    }
    // The level the server will assume is known at the front door; input
    // sizes and scales are the client's to choose.  Cost-only operands
    // are fabricated (size 2, kScale, exactly input_level), so their
    // facts are exact; functional inputs stay unknown, and without the
    // compiler the execution level is whatever the client shipped.
    std::size_t input_level = host_->max_level();
    if (request.cost_only && request.cost_only_level != 0) {
        input_level = std::min<std::size_t>(request.cost_only_level,
                                            host_->max_level());
    }
    he::InputFacts facts;
    facts.size = request.cost_only ? 2 : 0;
    facts.level = config_.compile_programs || request.cost_only
                      ? input_level
                      : 0;
    facts.scale =
        request.cost_only && !config_.compile_programs ? kScale : 0.0;
    he::AnalyzerOptions aopts;
    aopts.assume_alignment = config_.compile_programs;
    // load_program just validated structurally; don't walk it twice.
    aopts.assume_validated = true;
    // Admission acts on ok() and the first error; warnings are waste.
    aopts.errors_only = true;
    const he::ProgramAnalyzer analyzer(*host_, std::move(aopts));
    const he::AnalysisReport report = analyzer.analyze(program, facts);
    if (span.active()) {
        span.set_detail(std::to_string(program.nodes.size()) + " nodes, " +
                        std::to_string(report.error_count()) + " errors");
    }
    if (report.ok()) {
        return true;
    }
    record_failure(request.session_id, Status::InvalidProgram,
                   "serve: program rejected: " + report.summary());
    return false;
}

void InferenceServer::submit_chunk(std::span<const uint8_t> frame) {
    obs::Span span("wire.chunk", obs::Category::Wire);
    if (span.active()) {
        span.set_detail(std::to_string(frame.size()) + " bytes");
    }
    ChunkAssembler::Outcome out = chunks_.feed(frame);
    if (out.evicted) {
        record_failure(0, Status::Overloaded,
                       "serve: evicted stale chunk stream");
    }
    if (!out.error.empty()) {
        record_failure(0, Status::ParseError, std::move(out.error));
    } else if (out.request) {
        submit(std::move(*out.request));
    }
}

std::vector<Response> InferenceServer::run() {
    std::vector<Response> responses = std::move(parse_failures_);
    parse_failures_.clear();
    responses.reserve(responses.size() + pending_.size());

    // Admission order is arrival order (stable for ties: submission order).
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_ns < b.arrival_ns;
                     });

    std::size_t i = 0;
    while (i < pending_.size()) {
        // The batch opens when its first request arrives (or when the
        // previous batch dispatched, if the queue is backed up).
        const double batch_open =
            std::max(admission_clock_ns_, pending_[i].arrival_ns);
        std::size_t j = i;
        while (j < pending_.size() && j - i < config_.max_batch &&
               pending_[j].arrival_ns <= batch_open) {
            ++j;
        }
        double dispatch_time = batch_open;
        if (j - i < config_.max_batch && config_.batch_window_ns > 0.0) {
            // Dynamic batching: hold the partial batch open for the
            // admission window, taking late arrivals.
            const double deadline = batch_open + config_.batch_window_ns;
            while (j < pending_.size() && j - i < config_.max_batch &&
                   pending_[j].arrival_ns <= deadline) {
                dispatch_time = std::max(dispatch_time,
                                         pending_[j].arrival_ns);
                ++j;
            }
            if (j - i == config_.max_batch) {
                // Filled early: dispatch the moment the last slot filled.
            } else if (j < pending_.size()) {
                // Still partial with more traffic coming: the server waited
                // out the whole window before giving up on filling.
                dispatch_time = deadline;
            }
            // Partial batch at the end of the trace: dispatch at the last
            // arrival — there is nothing left to wait for.
        }

        for (std::size_t k = i; k < j; ++k) {
            responses.push_back(execute(pending_[k], dispatch_time));
            const Response &resp = responses.back();
            if (resp.ok) {
                completed_.record(resp);
                ServeMetrics::instance().requests.add();
                ServeMetrics::instance().latency_ns.observe(
                    resp.latency_ns());
            } else {
                ++failed_;
                ServeMetrics::instance().failed.add();
                if (resp.code == Status::InvalidProgram) {
                    ++invalid_programs_;
                    ServeMetrics::instance().invalid_programs.add();
                }
            }
        }
        ++batches_;
        ServeMetrics::instance().batches.add();
        if (obs::tracing_enabled()) {
            // Batch spans sit beside (not above) their requests: a
            // request's completion extends past the batch's dispatch, so
            // parenting it under the batch would break containment.
            obs::record_sim_span("serve.batch", obs::Category::Serve,
                                 batch_open, dispatch_time, obs_serve_track(),
                                 "n=" + std::to_string(j - i));
        }
        admission_clock_ns_ = dispatch_time;
        i = j;
    }
    pending_.clear();
    return responses;
}

std::shared_ptr<const he::Program> InferenceServer::compiled_program(
    uint64_t session_id, std::span<const uint8_t> bytes,
    std::size_t input_level) {
    he::CompilerOptions copts;
    copts.input_level = input_level;
    copts.input_scale = kScale;  // the serving admission scale
    bool missed = false;
    auto compiled = compile_cache_.get_or_compile(
        he::CompileCache::key(session_id, copts, bytes), [&] {
            missed = true;
            ServeMetrics::instance().programs_compiled.add();
            he::Program program = he::load_program(bytes, *host_);
            util::require(program.outputs.size() == 1,
                          "served programs must have exactly one output");
            // Every request passed admit_program on its way in, but that
            // gate judged the request's facts; this input check judges
            // the facts the compiler plans for, so "a statically
            // rejected program never takes a cache slot or reaches the
            // compiler" holds here on its own.  A rejection throws,
            // which inserts nothing.
            he::AnalyzerOptions aopts;
            aopts.assume_alignment = true;
            // load_program above validated structurally already.
            aopts.assume_validated = true;
            aopts.errors_only = true;  // only ok()/first error act here
            he::AnalysisReport report =
                he::ProgramAnalyzer(*host_, std::move(aopts))
                    .analyze(program, he::InputFacts{0, input_level, 0.0});
            if (!report.ok()) {
                // Sequenced before the move: function-argument evaluation
                // order is unspecified, and summary() reads the
                // diagnostics.
                std::string what =
                    "serve: program rejected: " + report.summary();
                throw he::ProgramRejected(std::move(what),
                                          std::move(report.diagnostics));
            }
            return he::ProgramCompiler(*host_, copts).compile(program).program;
        });
    if (!missed) {
        ServeMetrics::instance().program_cache_hits.add();
    }
    return compiled;
}

std::size_t InferenceServer::route_cost(const Request &request) const {
    if (request.op == Op::MatmulTile) {
        return 2 * static_cast<std::size_t>(request.matmul_tiles);
    }
    if (request.op == Op::Program) {
        // The circuit is not parsed yet at routing time; its wire size
        // is a monotone proxy for node count.
        return request.program.size() / 16;
    }
    return core::routine_program(static_cast<core::Routine>(request.op))
        .nodes.size();
}

Response InferenceServer::execute(const Request &request,
                                  double dispatch_time) {
    if (!obs::tracing_enabled()) {
        return execute_routed(request, dispatch_time);
    }
    // Reserve the request span's id up front and make it the thread's
    // context: everything recorded below — lane schedule, key acquire,
    // compile passes, kernel launches — parents into this span, which is
    // what connects the exported tree from front door to device.
    const uint64_t ordinal = obs::next_request_id();
    const uint64_t span_id = obs::TraceRecorder::instance().next_id();
    Response resp;
    {
        obs::ContextScope scope(span_id, ordinal, request.session_id);
        resp = execute_routed(request, dispatch_time);
    }
    // Recorded after its own scope popped, so the identity the children
    // inherited must be attached explicitly here.
    obs::SpanRecord span;
    span.id = span_id;
    span.request = ordinal;
    span.session = request.session_id;
    span.clock = obs::Clock::Sim;
    span.category = obs::Category::Serve;
    span.name = "serve.request";
    span.detail = op_name(request.op);
    span.detail += resp.ok ? " ok" : " failed";
    span.start_ns = resp.enqueue_ns;
    span.end_ns = resp.complete_ns;
    span.track = obs_serve_track();
    obs::TraceRecorder::instance().record(std::move(span));
    return resp;
}

uint32_t InferenceServer::obs_serve_track() {
    if (obs_serve_track_ == 0) {
        obs_serve_track_ = obs::next_track();
    }
    return obs_serve_track_;
}

uint32_t InferenceServer::obs_host_lane_track(std::size_t lane) {
    if (obs_host_lane_tracks_.size() < host_lane_ns_.size()) {
        obs_host_lane_tracks_.resize(host_lane_ns_.size(), 0);
    }
    if (obs_host_lane_tracks_[lane] == 0) {
        obs_host_lane_tracks_[lane] = obs::next_track();
    }
    return obs_host_lane_tracks_[lane];
}

Response InferenceServer::execute_routed(const Request &request,
                                         double dispatch_time) {
    // Routing: an explicit hint wins; Auto takes the GPU pool when one
    // is up, except that cost routing (when configured) keeps small jobs
    // on host.  Any request that wanted the GPU but cannot have it runs
    // on host and is counted as a fallback instead of failing.
    bool use_host = false;
    bool fallback = false;
    if (request.backend == BackendHint::Host) {
        use_host = true;
    } else if (!pool_) {
        use_host = true;
        fallback = true;
    } else if (request.backend == BackendHint::Auto &&
               config_.host_route_max_cost > 0 &&
               route_cost(request) <= config_.host_route_max_cost) {
        use_host = true;
    }
    if (!use_host) {
        try {
            return execute_on(request, dispatch_time, false);
        } catch (const he::BackendUnavailable &) {
            // The registry refused the backend mid-flight (disabled
            // between admission and dispatch): degrade this request.
            fallback = true;
        }
    }
    ++host_requests_;
    ServeMetrics::instance().host_requests.add();
    if (fallback) {
        ++fallbacks_;
        ServeMetrics::instance().fallbacks.add();
    }
    return execute_on(request, dispatch_time, true);
}

Response InferenceServer::execute_on(const Request &request,
                                     double dispatch_time, bool on_host) {
    // The lane is the only per-backend state.  A GPU lane (pool lane,
    // wrapped through the registry) keeps its simulated clock on the
    // device queue; a host lane (same session -> lane placement, so one
    // session's requests stay ordered and batching survives the
    // fallback) keeps it in host_lane_ns_, advanced by the synthetic
    // model.  The registry throws the typed BackendUnavailable here,
    // before any clock or key side effect, if "gpu" has been pulled out
    // from under the server, so the host retry starts clean.
    std::size_t lane = 0;
    he::BackendBundle gpu_bundle;
    he::GpuBackend *gpu = nullptr;
    const core::GpuEvaluator *evaluator = nullptr;
    if (on_host) {
        lane = request.session_id % host_lane_ns_.size();
        host_lane_ns_[lane] = std::max(host_lane_ns_[lane], dispatch_time);
    } else {
        lane = pool_->lane_of(request.session_id);
        evaluator = &pool_->evaluator(lane);
        he::BackendEnv env;
        env.context = host_;
        env.gpu_context = &pool_->context(lane);
        env.gpu_evaluator = evaluator;
        gpu_bundle = he::BackendRegistry::instance().create("gpu", env);
        // The built-in "gpu" factory always wraps the lane in a
        // GpuBackend.
        gpu = &static_cast<he::GpuBackend &>(gpu_bundle.backend());
        // Kernels of this request start no earlier than its batch
        // dispatch; a busy lane pushes the start further (queueing).
        gpu->gpu().queue().advance_to(dispatch_time);
    }
    he::Backend &backend = gpu ? *gpu : host_bundle_.backend();
    double &host_clock = host_lane_ns_[lane];  // untouched on a GPU lane
    const auto lane_clock = [&] {
        return gpu ? gpu->gpu().queue().clock_ns() : host_clock;
    };

    Response resp;
    resp.session_id = request.session_id;
    resp.enqueue_ns = request.arrival_ns;
    resp.dispatch_ns = lane_clock();

    // Lane-schedule span: dispatch to completion on this lane.  Reserved
    // up front and pushed as context so key acquires, compiles and kernel
    // launches below parent into it; the outer context (the request
    // span) is captured first to be this span's parent.
    const obs::TraceContext outer_ctx = obs::current_context();
    const uint64_t lane_span =
        obs::tracing_enabled() ? obs::TraceRecorder::instance().next_id()
                               : 0;
    obs::ContextScope lane_scope(lane_span);

    try {
        // Evaluation keys: the session's own (through the KeyManager's
        // LRU cache) when registered, else the shared tenant keys.  A
        // cache miss re-expands from the seed-compressed cold store and
        // re-stages the expanded material on the lane — the charge is
        // what makes eviction pressure visible in the latency tail.
        const ckks::RelinKeys *relin = has_relin_ ? &relin_ : nullptr;
        const ckks::GaloisKeys *galois = has_galois_ ? &galois_ : nullptr;
        std::shared_ptr<const SessionKeys> session_keys;
        if (key_manager_->has(request.session_id)) {
            KeyManager::Acquired acq =
                key_manager_->acquire(request.session_id);
            session_keys = std::move(acq.keys);
            relin = &session_keys->relin;
            galois = &session_keys->galois;
            if (acq.miss && gpu) {
                evaluator->charge_key_upload(acq.expanded_bytes);
            } else if (acq.miss) {
                host_clock += kHostKeyLoadNsPerByte *
                              static_cast<double>(acq.expanded_bytes);
            }
        }
        // Operand level: actual max-level encryptions when functional,
        // the requested level for cost-only sweeps.
        std::size_t input_level = host_->max_level();
        if (request.cost_only && request.cost_only_level != 0) {
            input_level = std::min<std::size_t>(request.cost_only_level,
                                                host_->max_level());
        }

        // An attached circuit is parsed (and validated) first: its input
        // count is the request's arity.  With compile_programs it goes
        // through the ProgramCompiler on admission, cached per session so
        // a re-submitted circuit pays the compile once.
        std::shared_ptr<const he::Program> client_program;
        const bool is_program = request.op == Op::Program;
        if (is_program) {
            if (config_.compile_programs) {
                client_program = compiled_program(request.session_id,
                                                  request.program,
                                                  input_level);
            } else {
                auto raw = he::load_program(request.program, *host_);
                util::require(raw.outputs.size() == 1,
                              "served programs must have exactly one output");
                client_program =
                    std::make_shared<const he::Program>(std::move(raw));
            }
        }

        const bool needs_relin = request.op != Op::Rotate &&
                                 request.op != Op::MatmulTile && !is_program;
        util::require(!needs_relin || relin != nullptr,
                      "relin keys not registered");
        util::require(request.op != Op::Rotate || galois != nullptr,
                      "galois keys not registered");

        if (!gpu) {
            // Deterministic host lane-time charge: nodes x per-node cost
            // x limb count.  Strictly positive, so dispatch < complete
            // holds for every served request.
            const double nodes = static_cast<double>(std::max<std::size_t>(
                is_program ? client_program->nodes.size() : route_cost(request),
                1));
            host_clock +=
                kHostNodeNs * nodes * static_cast<double>(input_level + 1);
        }

        // Operands: deserialize + upload, or fabricate for cost-only on
        // a GPU lane.  A host lane has no device to charge, so a
        // cost-only request there runs no arithmetic: the model's charge
        // above is its whole cost.
        const std::size_t arity =
            is_program ? client_program->num_inputs : op_arity(request.op);
        std::vector<he::Cipher> operands;
        operands.reserve(arity);
        if (!request.cost_only) {
            util::require(request.inputs.size() == arity,
                          "input count does not match op");
            for (const auto &bytes : request.inputs) {
                operands.push_back(
                    backend.upload(wire::load_ciphertext(bytes, *host_)));
            }
        } else if (gpu) {
            for (std::size_t a = 0; a < arity; ++a) {
                operands.push_back(gpu->adopt(
                    fabricate(gpu->gpu(), 2, input_level, kScale)));
            }
        }

        if (!request.cost_only || gpu) {
            he::Cipher result;
            if (request.op == Op::MatmulTile && gpu) {
                // One output tile of the encrypted matmul: a chain of
                // fused multiply-accumulates into one accumulator,
                // strictly ordered on the session's lane (Section IV-E).
                const core::GpuCiphertext &a = gpu->native(operands[0]);
                const core::GpuCiphertext &b = gpu->native(operands[1]);
                core::GpuCiphertext acc = core::allocate_ciphertext(
                    gpu->gpu(), 3, a.rns, a.scale * b.scale);
                for (uint64_t t = 0; t < request.matmul_tiles; ++t) {
                    evaluator->multiply_acc(a, b, acc);
                }
                result = gpu->adopt(std::move(acc));
            } else if (request.op == Op::MatmulTile) {
                // The GPU's t-fold multiply-accumulate of a*b is the
                // size-3 product added to itself tiles-1 more times.
                const he::Cipher product =
                    backend.multiply(operands[0], operands[1]);
                result = product;
                for (uint64_t t = 1; t < request.matmul_tiles; ++t) {
                    result = backend.add(result, product);
                }
            } else {
                // Everything else is a program: either the client's
                // circuit or the canonical program of the named routine —
                // one execution path for fixed-function and arbitrary
                // requests.
                he::Program stepped_rotate;
                const he::Program *program = client_program.get();
                if (request.op == Op::Rotate && request.rotate_step != 1) {
                    stepped_rotate = he::rotate_program(request.rotate_step);
                    program = &stepped_rotate;
                } else if (!is_program) {
                    // Fixed-function requests run the routine's canonical
                    // program as is: compile is the identity on it.
                    program = &core::routine_program(
                        static_cast<core::Routine>(request.op));
                }
                he::ProgramKeys keys;
                keys.relin = relin;
                keys.galois = galois;
                result = std::move(
                    he::run_program(*program, backend, operands, keys)
                        .front());
            }

            if (config_.functional) {
                // On a GPU lane the download blocks the lane (the
                // Decrypt-side synchronization of Fig. 2).
                resp.result = wire::serialize(backend.download(result));
            } else if (gpu) {
                gpu->gpu().queue().transfer(gpu->native(result).all().size() *
                                            sizeof(uint64_t));
            }
        }
        resp.ok = true;
        resp.code = Status::Ok;
    } catch (const he::ProgramRejected &e) {
        resp.ok = false;
        resp.code = Status::InvalidProgram;
        resp.error = e.what();
    } catch (const std::exception &e) {
        resp.ok = false;
        resp.code = Status::ExecError;
        resp.error = e.what();
    }
    resp.complete_ns = lane_clock();
    if (lane_span != 0) {
        // Same span shape on both backends, so the trace tree looks
        // identical whichever lane served the request.
        obs::SpanRecord span;
        span.id = lane_span;
        span.parent = outer_ctx.span;
        span.clock = obs::Clock::Sim;
        span.category = obs::Category::Schedule;
        span.name = "serve.lane";
        span.detail = (gpu ? "lane=" : "host lane=") + std::to_string(lane);
        span.start_ns = resp.dispatch_ns;
        span.end_ns = resp.complete_ns;
        span.track = gpu ? gpu->gpu().queue().obs_track()
                         : obs_host_lane_track(lane);
        obs::TraceRecorder::instance().record(std::move(span));
    }
    return resp;
}

void LatencyLog::record(const Response &resp) {
    latencies_ns_.push_back(resp.latency_ns());
    last_complete_ns_ = std::max(last_complete_ns_, resp.complete_ns);
    if (first_enqueue_ns_ < 0.0 || resp.enqueue_ns < first_enqueue_ns_) {
        first_enqueue_ns_ = resp.enqueue_ns;
    }
}

void LatencyLog::summarize(LatencyStats &stats) const {
    stats.requests = latencies_ns_.size();
    if (latencies_ns_.empty()) {
        return;
    }
    std::vector<double> sorted = latencies_ns_;
    std::sort(sorted.begin(), sorted.end());
    // Exact nearest-rank percentiles (obs::percentile is the shared
    // implementation); the registry histogram is the bounded export-side
    // view of the same distribution.
    stats.p50_ms = obs::percentile(sorted, 0.50) * 1e-6;
    stats.p95_ms = obs::percentile(sorted, 0.95) * 1e-6;
    stats.p99_ms = obs::percentile(sorted, 0.99) * 1e-6;
    stats.max_ms = sorted.back() * 1e-6;
    double sum = 0.0;
    for (const double v : sorted) {
        sum += v;
    }
    stats.mean_ms = sum / static_cast<double>(sorted.size()) * 1e-6;
    // Lanes (and shards) overlap, so the serving window spans the
    // earliest enqueue to the latest completion.
    const double window_ns =
        last_complete_ns_ - std::max(first_enqueue_ns_, 0.0);
    stats.makespan_ms = window_ns * 1e-6;
    stats.throughput_rps = window_ns > 0.0
                               ? static_cast<double>(stats.requests) /
                                     (window_ns * 1e-9)
                               : 0.0;
}

LatencyStats InferenceServer::stats() const {
    LatencyStats stats;
    stats.failed = failed_;
    stats.overloaded = overloaded_;
    stats.invalid_programs = invalid_programs_;
    stats.batches = batches_;
    stats.fallbacks = fallbacks_;
    stats.host_requests = host_requests_;
    stats.keys = key_manager_->stats();

    // Publish the device-side aggregates that only exist at stats points
    // (per-kernel registry updates would put atomics on the hot path).
    auto &reg = obs::Registry::global();
    if (pool_) {
        reg.gauge("xgpu.makespan_ns").set(pool_->makespan_ns());
        reg.gauge("xgpu.busy_ns").set(pool_->busy_ns());
        std::size_t live = 0;
        std::size_t peak = 0;
        for (std::size_t lane = 0; lane < pool_->lane_count(); ++lane) {
            const xgpu::MemoryCache::Stats &cache =
                pool_->context(lane).queue().cache().stats();
            live += cache.live_bytes;
            peak += cache.peak_live_bytes;
        }
        reg.gauge("xgpu.cache.live_bytes").set(static_cast<double>(live));
        reg.gauge("xgpu.cache.peak_live_bytes")
            .set(static_cast<double>(peak));
    }
    completed_.summarize(stats);
    return stats;
}

}  // namespace xehe::serve
