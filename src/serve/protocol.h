// Client/server message types for the encrypted-inference frontend: a
// Request names the he::Program to run — a client circuit shipped as wire
// bytes, or a fixed-function alias (one of the five Section IV-C
// routines, or a matmul tile job) the server resolves to its canonical
// program — and carries its operand ciphertexts as opaque wire buffers; a
// Response carries the serialized result plus the request's
// enqueue/dispatch/complete timestamps off the simulated clock.  Both
// serialize through the src/wire envelope, so a full client -> server ->
// client round trip moves nothing but validated bytes.
#pragma once

#include <optional>
#include <unordered_map>

#include "wire/wire.h"

namespace xehe::serve {

/// What a request runs.  Program ships an arbitrary client-defined he::
/// circuit as wire bytes, so new workloads need no server change; every
/// other value is a wire alias, resolved to a Program on the server: the
/// five benchmarked routines of Section IV-C (their canonical programs;
/// Rotate by `rotate_step`) and the matmul tile-accumulation job of
/// Section IV-E (one MultiplyAcc node of `matmul_tiles` tiles).
enum class Op : uint8_t {
    MulLin = 0,
    MulLinRS = 1,
    SqrLinRS = 2,
    MulLinRSModSwAdd = 3,
    Rotate = 4,
    MatmulTile = 5,
    Program = 6,
};

const char *op_name(Op op);

/// Per-request backend selection (wire v4).  Auto defers to the server,
/// which takes the GPU pool when one is up.  Host/Gpu pin the request; a
/// Gpu-pinned request still degrades to the host backend (counted in
/// LatencyStats::fallbacks) when no GPU backend is available, rather than
/// failing.
enum class BackendHint : uint8_t {
    Auto = 0,
    Host = 1,
    Gpu = 2,
};

const char *backend_hint_name(BackendHint hint);

/// Operand ciphertexts required by a fixed-function op (1 to 3): the
/// input count of the program it resolves to.  For Op::Program the arity
/// is the shipped program's input count; this returns 0.
std::size_t op_arity(Op op);

struct Request {
    uint64_t session_id = 0;
    Op op = Op::MulLin;
    int rotate_step = 1;          ///< Op::Rotate only
    uint64_t matmul_tiles = 1;    ///< Op::MatmulTile: accumulations chained
    /// Arrival time on the simulated clock; admission orders by this.
    double arrival_ns = 0.0;
    /// Cost-only requests carry no ciphertext bytes: the server fabricates
    /// operands at `cost_only_level` (0 = max level) and charges the
    /// upload, matching the paper's N = 32K cost-only operating point.
    bool cost_only = false;
    uint64_t cost_only_level = 0;
    /// Which backend should execute this request (see BackendHint).
    BackendHint backend = BackendHint::Auto;
    /// Operand ciphertexts, each a self-contained wire envelope
    /// (wire::serialize of a ckks::Ciphertext), in op order (for
    /// Op::Program: in program-input order).
    std::vector<std::vector<uint8_t>> inputs;
    /// Op::Program only: the circuit, a self-contained wire envelope
    /// (wire::serialize of an he::Program with exactly one output).
    std::vector<uint8_t> program;
};

/// Typed failure classes, so clients can react to overload (retry with
/// backoff elsewhere) differently from corruption (drop) or execution
/// faults (report) without parsing error strings.
enum class Status : uint8_t {
    Ok = 0,
    ParseError = 1,  ///< request/chunk bytes failed wire validation
    ExecError = 2,   ///< request was valid but evaluation failed
    Overloaded = 3,  ///< shard credit window exhausted; never enqueued
    /// The shipped he::Program failed static verification at admission
    /// (he::ProgramAnalyzer): level underflow, size violations, missing
    /// rotations, outputs aliasing inputs.  Rejected before any lane
    /// dispatch, so no device time is charged; the error string carries
    /// the first analyzer diagnostic.
    InvalidProgram = 4,
};

const char *status_name(Status s);

struct Response {
    uint64_t session_id = 0;
    bool ok = false;
    Status code = Status::ExecError;  ///< Status::Ok iff ok
    std::string error;            ///< set when !ok
    /// Serialized result ciphertext (functional servers only).
    std::vector<uint8_t> result;
    // Timestamps on the simulated clock (ns).
    double enqueue_ns = 0.0;      ///< request arrival at admission
    double dispatch_ns = 0.0;     ///< first kernel submitted on the lane
    double complete_ns = 0.0;     ///< lane timeline after result download

    double latency_ns() const noexcept { return complete_ns - enqueue_ns; }
    double queueing_ns() const noexcept { return dispatch_ns - enqueue_ns; }
};

// wire::serialize / serialized_bytes pick these up by ADL.
void save(wire::Writer &w, const Request &req);
void save(wire::Writer &w, const Response &resp);
void load(wire::Reader &r, Request &req);
void load(wire::Reader &r, Response &resp);

Request load_request(std::span<const uint8_t> buffer);
Response load_response(std::span<const uint8_t> buffer);

// ---------------------------------------------------------------------------
// Streaming chunked request path: a large request (many or big operand
// ciphertexts) travels as bounded wire chunk frames instead of one
// monolithic envelope.  The parser consumes the request *body* bytes
// incrementally — header fields first, then each operand buffer straight
// into its own per-input vector — so the receiver never materializes the
// whole request as a single contiguous buffer; integrity comes from the
// per-chunk checksums instead of the envelope checksum.
// ---------------------------------------------------------------------------

/// Serializes `req`'s body and slices it into checksummed chunk frames
/// for `stream_id` (client-side helper; the client may hold the whole
/// request anyway).
std::vector<std::vector<uint8_t>> chunk_request(
    const Request &req, uint64_t stream_id,
    std::size_t max_payload = wire::kMaxChunkPayload);

/// Incremental parser over Request body bytes.  feed() accepts arbitrary
/// spans; buffered state is bounded by the fixed header plus the operand
/// currently being filled (which the final Request owns anyway).  Throws
/// wire::WireError on any field that monolithic load() would reject.
class StreamingRequestParser {
public:
    /// Consumes `bytes`; returns true once the request is complete.
    /// Trailing bytes beyond a complete request throw.
    bool feed(std::span<const uint8_t> bytes);

    bool done() const noexcept { return state_ == State::Done; }
    /// Total body bytes consumed so far.
    std::size_t consumed() const noexcept { return consumed_; }

    /// Moves the parsed request out.  Only valid once done().
    Request take();

private:
    enum class State : uint8_t {
        Fixed,        ///< tag .. input count (fixed 45-byte prefix)
        InputLen,     ///< u64 length of the next operand
        InputBody,    ///< operand bytes -> request_.inputs.back()
        ProgramLen,   ///< u64 program length
        ProgramBody,  ///< program bytes -> request_.program
        Done,
    };

    void finish_fixed();
    void start_next_input();

    State state_ = State::Fixed;
    std::vector<uint8_t> pending_;   ///< partial fixed header / length field
    std::size_t need_ = 45;          ///< bytes wanted in the current state
    std::size_t input_count_ = 0;
    std::size_t inputs_parsed_ = 0;
    std::size_t body_remaining_ = 0;  ///< of the operand/program being read
    std::size_t consumed_ = 0;
    Request request_;
};

/// Reassembles interleaved chunk-frame streams into Requests: one
/// StreamingRequestParser per open stream, fed only frames that continue
/// the stream in order and consistently.  The stream table is bounded: a
/// frame opening a stream at the cap first evicts the least-recently-fed
/// stream, so a client that opens streams and never finishes them cannot
/// pin the table and lock new streams out forever.
class ChunkAssembler {
public:
    static constexpr std::size_t kMaxStreams = 256;

    /// What one frame did.  At most one of `request` / `error` is set;
    /// `evicted` may accompany either (or neither).
    struct Outcome {
        /// The frame completed its stream: the assembled request.
        std::optional<Request> request;
        /// The frame failed validation (a parse error); its stream, if it
        /// had one, was aborted and its partial state discarded.
        std::string error;
        /// Opening this frame's stream evicted a stale one.
        bool evicted = false;
    };

    Outcome feed(std::span<const uint8_t> frame);

    /// Streams with at least one accepted chunk that have not completed.
    std::size_t open_streams() const noexcept { return streams_.size(); }

private:
    struct Stream {
        StreamingRequestParser parser;
        uint32_t next_seq = 0;
        uint64_t received = 0;
        uint64_t total = 0;
        uint64_t last_fed = 0;  ///< tick_ at the latest frame
    };
    std::unordered_map<uint64_t, Stream> streams_;
    uint64_t tick_ = 0;  ///< monotone frame counter for staleness
};

}  // namespace xehe::serve
