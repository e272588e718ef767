#include "he/backend.h"

namespace xehe::he {

// ---------------------------------------------------------------------------
// HostBackend
// ---------------------------------------------------------------------------

Cipher HostBackend::wrap(ckks::Ciphertext ct) {
    const std::size_t size = ct.size;
    const std::size_t level = ct.rns;
    const double scale = ct.scale;
    return make_cipher(
        std::make_shared<const ckks::Ciphertext>(std::move(ct)), size, level,
        scale);
}

Cipher HostBackend::add(const Cipher &a, const Cipher &b) {
    return wrap(evaluator_.add(native(a), native(b)));
}

Cipher HostBackend::sub(const Cipher &a, const Cipher &b) {
    return wrap(evaluator_.sub(native(a), native(b)));
}

Cipher HostBackend::negate(const Cipher &a) {
    return wrap(evaluator_.negate(native(a)));
}

Cipher HostBackend::add_plain(const Cipher &a, const ckks::Plaintext &p) {
    return wrap(evaluator_.add_plain(native(a), p));
}

Cipher HostBackend::multiply_plain(const Cipher &a, const ckks::Plaintext &p) {
    return wrap(evaluator_.multiply_plain(native(a), p));
}

Cipher HostBackend::multiply(const Cipher &a, const Cipher &b) {
    return wrap(evaluator_.multiply(native(a), native(b)));
}

Cipher HostBackend::square(const Cipher &a) {
    return wrap(evaluator_.square(native(a)));
}

Cipher HostBackend::multiply_acc(const Cipher &a, const Cipher &b,
                                 uint32_t tiles) {
    util::require(tiles >= 1, "he: multiply_acc needs at least one tile");
    // The GPU chain's t-fold accumulation of a*b is the size-3 product
    // added to itself t-1 more times.
    const ckks::Ciphertext product = evaluator_.multiply(native(a), native(b));
    ckks::Ciphertext acc = product;
    for (uint32_t t = 1; t < tiles; ++t) {
        acc = evaluator_.add(acc, product);
    }
    return wrap(std::move(acc));
}

Cipher HostBackend::relinearize(const Cipher &a, const ckks::RelinKeys &keys) {
    return wrap(evaluator_.relinearize(native(a), keys));
}

Cipher HostBackend::rescale(const Cipher &a, double snap_scale) {
    ckks::Ciphertext out = evaluator_.rescale(native(a));
    if (snap_scale > 0.0) {
        out.scale = snap_scale;
    }
    return wrap(std::move(out));
}

Cipher HostBackend::mod_switch(const Cipher &a, double adopt_scale) {
    ckks::Ciphertext out = evaluator_.mod_switch(native(a));
    if (adopt_scale > 0.0) {
        out.scale = adopt_scale;
    }
    return wrap(std::move(out));
}

Cipher HostBackend::mod_switch_add(const Cipher &a, const Cipher &c) {
    ckks::Ciphertext down = evaluator_.mod_switch(native(c));
    down.scale = native(a).scale;
    return wrap(evaluator_.add(native(a), down));
}

Cipher HostBackend::rotate(const Cipher &a, int step,
                           const ckks::GaloisKeys &keys) {
    return wrap(evaluator_.rotate(native(a), step, keys));
}

Cipher HostBackend::conjugate(const Cipher &a, const ckks::GaloisKeys &keys) {
    return wrap(evaluator_.conjugate(native(a), keys));
}

Cipher HostBackend::set_scale(const Cipher &a, double scale) {
    ckks::Ciphertext out = native(a);
    out.scale = scale;
    return wrap(std::move(out));
}

Cipher HostBackend::upload(const ckks::Ciphertext &ct) {
    return wrap(ct);
}

ckks::Ciphertext HostBackend::download(const Cipher &a) {
    return native(a);
}

// ---------------------------------------------------------------------------
// GpuBackend
// ---------------------------------------------------------------------------

Cipher GpuBackend::adopt(core::GpuCiphertext ct) {
    const std::size_t size = ct.size;
    const std::size_t level = ct.rns;
    const double scale = ct.scale;
    return make_cipher(
        std::make_shared<const core::GpuCiphertext>(std::move(ct)), size,
        level, scale);
}

Cipher GpuBackend::wrap(const core::GpuCiphertext &ct) {
    // Aliasing handle: no ownership, no copy; the caller guarantees `ct`
    // outlives every handle derived from it.
    return make_cipher(
        std::shared_ptr<const core::GpuCiphertext>(
            std::shared_ptr<const void>(), &ct),
        ct.size, ct.rns, ct.scale);
}

Cipher GpuBackend::add(const Cipher &a, const Cipher &b) {
    return adopt(evaluator_->add(native(a), native(b)));
}

Cipher GpuBackend::sub(const Cipher &a, const Cipher &b) {
    return adopt(evaluator_->sub(native(a), native(b)));
}

Cipher GpuBackend::negate(const Cipher &a) {
    return adopt(evaluator_->negate(native(a)));
}

Cipher GpuBackend::add_plain(const Cipher &a, const ckks::Plaintext &p) {
    return adopt(evaluator_->add_plain(native(a), p));
}

Cipher GpuBackend::multiply_plain(const Cipher &a, const ckks::Plaintext &p) {
    return adopt(evaluator_->multiply_plain(native(a), p));
}

Cipher GpuBackend::multiply(const Cipher &a, const Cipher &b) {
    return adopt(evaluator_->multiply(native(a), native(b)));
}

Cipher GpuBackend::square(const Cipher &a) {
    return adopt(evaluator_->square(native(a)));
}

Cipher GpuBackend::multiply_acc(const Cipher &a, const Cipher &b,
                                uint32_t tiles) {
    util::require(tiles >= 1, "he: multiply_acc needs at least one tile");
    const core::GpuCiphertext &x = native(a);
    const core::GpuCiphertext &y = native(b);
    core::GpuCiphertext acc =
        core::allocate_ciphertext(*gpu_, 3, x.rns, x.scale * y.scale);
    for (uint32_t t = 0; t < tiles; ++t) {
        evaluator_->multiply_acc(x, y, acc);
    }
    return adopt(std::move(acc));
}

Cipher GpuBackend::relinearize(const Cipher &a, const ckks::RelinKeys &keys) {
    return adopt(evaluator_->relinearize(native(a), keys));
}

Cipher GpuBackend::rescale(const Cipher &a, double snap_scale) {
    core::GpuCiphertext out = evaluator_->rescale(native(a));
    if (snap_scale > 0.0) {
        out.scale = snap_scale;
    }
    return adopt(std::move(out));
}

Cipher GpuBackend::mod_switch(const Cipher &a, double adopt_scale) {
    core::GpuCiphertext out = evaluator_->mod_switch(native(a));
    if (adopt_scale > 0.0) {
        out.scale = adopt_scale;
    }
    return adopt(std::move(out));
}

Cipher GpuBackend::mod_switch_add(const Cipher &a, const Cipher &c) {
    return adopt(evaluator_->mod_switch_add(native(a), native(c)));
}

Cipher GpuBackend::rotate(const Cipher &a, int step,
                          const ckks::GaloisKeys &keys) {
    return adopt(evaluator_->rotate(native(a), step, keys));
}

Cipher GpuBackend::conjugate(const Cipher &a, const ckks::GaloisKeys &keys) {
    return adopt(evaluator_->conjugate(native(a), keys));
}

Cipher GpuBackend::set_scale(const Cipher &a, double scale) {
    return adopt(evaluator_->set_scale(native(a), scale));
}

Cipher GpuBackend::upload(const ckks::Ciphertext &ct) {
    return adopt(core::upload(*gpu_, ct));
}

ckks::Ciphertext GpuBackend::download(const Cipher &a) {
    return core::download(*gpu_, native(a));
}

}  // namespace xehe::he
