// The backend-agnostic evaluator interface of the unified he:: frontend.
//
// he::Backend is the one abstraction every higher layer (he::Session, the
// he::Program interpreter, the serving frontend) is written against: a
// small set of CKKS evaluation primitives over opaque he::Cipher handles.
// Two adapters implement it — HostBackend over the CPU ckks::Evaluator
// (the correctness oracle) and GpuBackend over the simulated-GPU
// GpuEvaluator — and the conformance suite (tests/test_he_backend.cpp)
// proves the two produce bit-identical ciphertexts on randomized op
// chains, so anything written against Backend runs on either.
#pragma once

#include "he/cipher.h"
#include "xehe/gpu_evaluator.h"

namespace xehe::he {

class Backend {
public:
    virtual ~Backend() = default;

    Backend(const Backend &) = delete;
    Backend &operator=(const Backend &) = delete;

    virtual const ckks::CkksContext &context() const noexcept = 0;
    virtual const char *name() const noexcept = 0;

    // --- linear ops ---------------------------------------------------
    virtual Cipher add(const Cipher &a, const Cipher &b) = 0;
    virtual Cipher sub(const Cipher &a, const Cipher &b) = 0;
    virtual Cipher negate(const Cipher &a) = 0;
    virtual Cipher add_plain(const Cipher &a, const ckks::Plaintext &p) = 0;
    virtual Cipher multiply_plain(const Cipher &a,
                                  const ckks::Plaintext &p) = 0;

    // --- multiplicative ops -------------------------------------------
    virtual Cipher multiply(const Cipher &a, const Cipher &b) = 0;
    virtual Cipher square(const Cipher &a) = 0;
    /// a*b accumulated `tiles` (>= 1) times into a fresh size-3
    /// accumulator: one output tile of the Section IV-E matmul, chained
    /// multiply-accumulate launches on the GPU backend.
    virtual Cipher multiply_acc(const Cipher &a, const Cipher &b,
                                uint32_t tiles) = 0;
    virtual Cipher relinearize(const Cipher &a,
                               const ckks::RelinKeys &keys) = 0;
    /// Rescale (drop one prime, divide the scale).  A positive
    /// `snap_scale` overrides the result's scale metadata — the waterline
    /// snap of the session's automatic scale management, free because the
    /// result is freshly produced.
    virtual Cipher rescale(const Cipher &a, double snap_scale = 0.0) = 0;
    /// Drop one prime without scaling.  A positive `adopt_scale`
    /// overrides the result's scale metadata (the routines' mod-switch
    /// scale adoption), free on the freshly produced result.
    virtual Cipher mod_switch(const Cipher &a, double adopt_scale = 0.0) = 0;
    /// a + (c mod-switched one level down, adopting a's scale) — the
    /// MulLinRSModSwAdd tail as one primitive, so the GPU backend keeps
    /// its fused gather+add launch (no materialized intermediate).
    virtual Cipher mod_switch_add(const Cipher &a, const Cipher &c) = 0;
    virtual Cipher rotate(const Cipher &a, int step,
                          const ckks::GaloisKeys &keys) = 0;
    virtual Cipher conjugate(const Cipher &a, const ckks::GaloisKeys &keys) = 0;
    /// Explicit scale override on an arbitrary (shared) handle: copies the
    /// underlying value with new scale metadata (a copy kernel on the GPU
    /// backend).
    virtual Cipher set_scale(const Cipher &a, double scale) = 0;

    // --- host boundary ------------------------------------------------
    virtual Cipher upload(const ckks::Ciphertext &ct) = 0;
    virtual ckks::Ciphertext download(const Cipher &a) = 0;

    // --- pre-planned fusion groups ------------------------------------
    /// Brackets a compiler-planned run of mutually independent dyadic
    /// ops: a fusing backend records the ops between begin and end and
    /// submits them as one launch.  The default is a no-op (the host
    /// backend has no launches to merge), so raw interpretation is
    /// unaffected.  Groups do not nest.
    virtual void begin_fusion_group() {}
    virtual void end_fusion_group() {}

protected:
    Backend() = default;

    /// Wraps a backend-owned value into a handle stamped with this
    /// backend and the given metadata.
    Cipher make_cipher(std::shared_ptr<const void> impl, std::size_t size,
                       std::size_t level, double scale) const {
        return Cipher(std::move(impl), this, size, level, scale);
    }

    /// The underlying value of `a`, after checking ownership.
    const void *impl_of(const Cipher &a) const {
        util::require(a.valid(), "he: empty cipher handle");
        util::require(a.backend() == this,
                      "he: cipher belongs to a different backend");
        return a.impl_.get();
    }
};

/// Backend over the CPU reference evaluator (the correctness oracle).
class HostBackend final : public Backend {
public:
    explicit HostBackend(const ckks::CkksContext &context)
        : context_(&context), evaluator_(context) {}

    const ckks::CkksContext &context() const noexcept override {
        return *context_;
    }
    const char *name() const noexcept override { return "host"; }

    Cipher add(const Cipher &a, const Cipher &b) override;
    Cipher sub(const Cipher &a, const Cipher &b) override;
    Cipher negate(const Cipher &a) override;
    Cipher add_plain(const Cipher &a, const ckks::Plaintext &p) override;
    Cipher multiply_plain(const Cipher &a, const ckks::Plaintext &p) override;
    Cipher multiply(const Cipher &a, const Cipher &b) override;
    Cipher square(const Cipher &a) override;
    Cipher multiply_acc(const Cipher &a, const Cipher &b,
                        uint32_t tiles) override;
    Cipher relinearize(const Cipher &a, const ckks::RelinKeys &keys) override;
    Cipher rescale(const Cipher &a, double snap_scale = 0.0) override;
    Cipher mod_switch(const Cipher &a, double adopt_scale = 0.0) override;
    Cipher mod_switch_add(const Cipher &a, const Cipher &c) override;
    Cipher rotate(const Cipher &a, int step,
                  const ckks::GaloisKeys &keys) override;
    Cipher conjugate(const Cipher &a, const ckks::GaloisKeys &keys) override;
    Cipher set_scale(const Cipher &a, double scale) override;

    Cipher upload(const ckks::Ciphertext &ct) override;
    ckks::Ciphertext download(const Cipher &a) override;

private:
    Cipher wrap(ckks::Ciphertext ct);
    const ckks::Ciphertext &native(const Cipher &a) const {
        return *static_cast<const ckks::Ciphertext *>(impl_of(a));
    }

    const ckks::CkksContext *context_;
    ckks::Evaluator evaluator_;
};

/// Backend over the simulated-GPU evaluator.  Holds the evaluator by
/// const reference (its primitives are const member functions) and the
/// GpuContext for allocation and the host<->device boundary.
class GpuBackend final : public Backend {
public:
    GpuBackend(core::GpuContext &gpu, const core::GpuEvaluator &evaluator)
        : gpu_(&gpu), evaluator_(&evaluator) {}

    const ckks::CkksContext &context() const noexcept override {
        return gpu_->host();
    }
    const char *name() const noexcept override { return "gpu"; }

    Cipher add(const Cipher &a, const Cipher &b) override;
    Cipher sub(const Cipher &a, const Cipher &b) override;
    Cipher negate(const Cipher &a) override;
    Cipher add_plain(const Cipher &a, const ckks::Plaintext &p) override;
    Cipher multiply_plain(const Cipher &a, const ckks::Plaintext &p) override;
    Cipher multiply(const Cipher &a, const Cipher &b) override;
    Cipher square(const Cipher &a) override;
    Cipher multiply_acc(const Cipher &a, const Cipher &b,
                        uint32_t tiles) override;
    Cipher relinearize(const Cipher &a, const ckks::RelinKeys &keys) override;
    Cipher rescale(const Cipher &a, double snap_scale = 0.0) override;
    Cipher mod_switch(const Cipher &a, double adopt_scale = 0.0) override;
    Cipher mod_switch_add(const Cipher &a, const Cipher &c) override;
    Cipher rotate(const Cipher &a, int step,
                  const ckks::GaloisKeys &keys) override;
    Cipher conjugate(const Cipher &a, const ckks::GaloisKeys &keys) override;
    Cipher set_scale(const Cipher &a, double scale) override;

    Cipher upload(const ckks::Ciphertext &ct) override;
    ckks::Ciphertext download(const Cipher &a) override;

    void begin_fusion_group() override { evaluator_->begin_dyadic_group(); }
    void end_fusion_group() override { evaluator_->end_dyadic_group(); }

    /// Takes ownership of a GPU ciphertext produced outside the frontend.
    Cipher adopt(core::GpuCiphertext ct);
    /// Non-owning view of a caller-owned GPU ciphertext (the caller keeps
    /// it alive for the handle's lifetime) — how the routine harness feeds
    /// its existing device inputs through the Program interpreter without
    /// a copy.
    Cipher wrap(const core::GpuCiphertext &ct);
    /// The GPU-resident value behind a handle (for download/transfer).
    const core::GpuCiphertext &native(const Cipher &a) const {
        return *static_cast<const core::GpuCiphertext *>(impl_of(a));
    }
    /// The device context this backend drives (queue, profiler).
    core::GpuContext &gpu() const noexcept { return *gpu_; }

private:
    core::GpuContext *gpu_;
    const core::GpuEvaluator *evaluator_;
};

}  // namespace xehe::he
