#include "ckks/evaluator.h"

namespace xehe::ckks {

Evaluator::Evaluator(const CkksContext &context)
    : context_(&context), galois_(context.n()) {}

void Evaluator::check_compatible(const Ciphertext &a,
                                 const Ciphertext &b) const {
    util::require(a.n == b.n && a.rns == b.rns, "ciphertext level mismatch");
    util::require(a.ntt_form && b.ntt_form, "expected NTT form");
    util::require(scales_match(a.scale, b.scale), "scale mismatch");
}

Ciphertext Evaluator::add(const Ciphertext &a, const Ciphertext &b) const {
    check_compatible(a, b);
    util::require(a.size == b.size, "size mismatch");
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t p = 0; p < a.size; ++p) {
        poly::add(a.poly(p), b.poly(p), out.poly(p), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::sub(const Ciphertext &a, const Ciphertext &b) const {
    check_compatible(a, b);
    util::require(a.size == b.size, "size mismatch");
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t p = 0; p < a.size; ++p) {
        poly::sub(a.poly(p), b.poly(p), out.poly(p), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::negate(const Ciphertext &a) const {
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t p = 0; p < a.size; ++p) {
        poly::negate(a.poly(p), out.poly(p), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::add_plain(const Ciphertext &a, const Plaintext &p) const {
    util::require(a.rns == p.rns && a.n == p.n, "level mismatch");
    util::require(scales_match(a.scale, p.scale), "scale mismatch");
    Ciphertext out = a;
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    poly::add(a.poly(0), p.data, out.poly(0), moduli, a.n);
    return out;
}

Ciphertext Evaluator::multiply_plain(const Ciphertext &a,
                                     const Plaintext &p) const {
    util::require(a.rns == p.rns && a.n == p.n, "level mismatch");
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    out.scale = a.scale * p.scale;
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t i = 0; i < a.size; ++i) {
        poly::mul(a.poly(i), p.data, out.poly(i), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::multiply(const Ciphertext &a, const Ciphertext &b) const {
    // No scale check: unlike add/sub, multiplication is exact across
    // unequal scales (the result tracks their product), matching the GPU
    // evaluator.
    util::require(a.n == b.n && a.rns == b.rns, "ciphertext level mismatch");
    util::require(a.ntt_form && b.ntt_form, "expected NTT form");
    util::require(a.size == 2 && b.size == 2, "multiply expects size-2 inputs");
    Ciphertext out;
    out.resize(a.n, 3, a.rns);
    out.ntt_form = true;
    out.scale = a.scale * b.scale;
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    poly::mul(a.poly(0), b.poly(0), out.poly(0), moduli, a.n);
    // d1 = a0·b1 + a1·b0 through the fused multiply-add.
    poly::mul(a.poly(0), b.poly(1), out.poly(1), moduli, a.n);
    poly::mad(a.poly(1), b.poly(0), out.poly(1), moduli, a.n);
    poly::mul(a.poly(1), b.poly(1), out.poly(2), moduli, a.n);
    return out;
}

Ciphertext Evaluator::square(const Ciphertext &a) const {
    return multiply(a, a);
}

void Evaluator::switch_key_inplace(Ciphertext &dest,
                                   std::span<const uint64_t> target,
                                   const KSwitchKey &key) const {
    const std::size_t n = context_->n();
    const std::size_t l = dest.rns;
    const std::size_t special = context_->key_rns() - 1;
    const Modulus &p = context_->special_prime();
    util::require(target.size() == l * n, "switch-key target size mismatch");
    util::require(key.keys.size() >= l, "key-switching key too short");

    // 1. Decomposition digits need the coefficient representation.
    std::vector<uint64_t> target_coeff(target.begin(), target.end());
    poly::intt(target_coeff, context_->tables(l), n);

    // 2. Inner products over the extended base {q_0..q_{l-1}, p}.
    std::vector<uint64_t> acc0((l + 1) * n, 0), acc1((l + 1) * n, 0);
    std::vector<uint64_t> digit(n);
    for (std::size_t j = 0; j <= l; ++j) {
        const std::size_t mod_idx = (j < l) ? j : special;
        const Modulus &mj = context_->key_modulus()[mod_idx];
        const auto &table_j = context_->table(mod_idx);
        auto a0 = std::span<uint64_t>(acc0).subspan(j * n, n);
        auto a1 = std::span<uint64_t>(acc1).subspan(j * n, n);
        for (std::size_t i = 0; i < l; ++i) {
            // Digit i as an integer polynomial with coefficients < q_i,
            // reduced into modulus m_j, then NTT'ed under m_j.
            const auto src = std::span<const uint64_t>(target_coeff)
                                 .subspan(i * n, n);
            if (mod_idx == i) {
                std::copy(src.begin(), src.end(), digit.begin());
            } else {
                for (std::size_t k = 0; k < n; ++k) {
                    digit[k] = util::barrett_reduce_64(src[k], mj);
                }
            }
            ntt::ntt_forward(digit, table_j);
            const auto k0 = key.keys[i].component(0, mod_idx);
            const auto k1 = key.keys[i].component(1, mod_idx);
            for (std::size_t k = 0; k < n; ++k) {
                a0[k] = util::mad_mod(digit[k], k0[k], a0[k], mj);
                a1[k] = util::mad_mod(digit[k], k1[k], a1[k], mj);
            }
        }
    }

    // 3. Mod-down by the special prime with rounding, then accumulate.
    const uint64_t half = context_->half(special);
    std::vector<uint64_t> special_coeff(n), t(n);
    for (int part = 0; part < 2; ++part) {
        auto &acc = part == 0 ? acc0 : acc1;
        auto sp = std::span<uint64_t>(acc).subspan(l * n, n);
        ntt::ntt_inverse(sp, context_->table(special));
        for (std::size_t k = 0; k < n; ++k) {
            special_coeff[k] = util::add_mod(sp[k], half, p);
        }
        for (std::size_t j = 0; j < l; ++j) {
            const Modulus &qj = context_->key_modulus()[j];
            for (std::size_t k = 0; k < n; ++k) {
                t[k] = util::sub_mod(util::barrett_reduce_64(special_coeff[k],
                                                             qj),
                                     context_->half_mod(special, j), qj);
            }
            ntt::ntt_forward(t, context_->table(j));
            auto aj = std::span<uint64_t>(acc).subspan(j * n, n);
            auto dst = dest.component(part, j);
            const auto &inv_p = context_->inv_mod(special, j);
            for (std::size_t k = 0; k < n; ++k) {
                const uint64_t diff = util::sub_mod(aj[k], t[k], qj);
                dst[k] = util::add_mod(dst[k], util::mul_mod(diff, inv_p, qj),
                                       qj);
            }
        }
    }
}

Ciphertext Evaluator::relinearize(const Ciphertext &a,
                                  const RelinKeys &keys) const {
    util::require(a.size == 3, "relinearize expects a size-3 ciphertext");
    Ciphertext out;
    out.resize(a.n, 2, a.rns);
    out.ntt_form = a.ntt_form;
    out.scale = a.scale;
    std::copy(a.poly(0).begin(), a.poly(0).end(), out.poly(0).begin());
    std::copy(a.poly(1).begin(), a.poly(1).end(), out.poly(1).begin());
    switch_key_inplace(out, a.poly(2), keys.key);
    return out;
}

Ciphertext Evaluator::rescale(const Ciphertext &a) const {
    util::require(a.rns >= 2, "cannot rescale at the last level");
    util::require(a.ntt_form, "expected NTT form");
    const std::size_t n = a.n;
    const std::size_t last = a.rns - 1;
    const Modulus &q_last = context_->key_modulus()[last];
    const uint64_t half = context_->half(last);

    Ciphertext out;
    out.resize(n, a.size, a.rns - 1);
    out.ntt_form = true;
    out.scale = a.scale / static_cast<double>(q_last.value());

    std::vector<uint64_t> last_coeff(n), t(n);
    for (std::size_t poly_i = 0; poly_i < a.size; ++poly_i) {
        // Last component to coefficient form, plus rounding offset.
        const auto src_last = a.component(poly_i, last);
        std::copy(src_last.begin(), src_last.end(), last_coeff.begin());
        ntt::ntt_inverse(last_coeff, context_->table(last));
        for (std::size_t k = 0; k < n; ++k) {
            last_coeff[k] = util::add_mod(last_coeff[k], half, q_last);
        }
        for (std::size_t j = 0; j < last; ++j) {
            const Modulus &qj = context_->key_modulus()[j];
            for (std::size_t k = 0; k < n; ++k) {
                t[k] = util::sub_mod(util::barrett_reduce_64(last_coeff[k], qj),
                                     context_->half_mod(last, j), qj);
            }
            ntt::ntt_forward(t, context_->table(j));
            const auto src = a.component(poly_i, j);
            auto dst = out.component(poly_i, j);
            const auto &inv_q = context_->inv_mod(last, j);
            for (std::size_t k = 0; k < n; ++k) {
                dst[k] = util::mul_mod(util::sub_mod(src[k], t[k], qj), inv_q,
                                       qj);
            }
        }
    }
    return out;
}

Ciphertext Evaluator::mod_switch(const Ciphertext &a) const {
    util::require(a.rns >= 2, "cannot switch below one prime");
    Ciphertext out;
    out.resize(a.n, a.size, a.rns - 1);
    out.ntt_form = a.ntt_form;
    out.scale = a.scale;
    for (std::size_t p = 0; p < a.size; ++p) {
        const auto src = a.poly(p);
        std::copy(src.begin(), src.begin() + out.rns * a.n,
                  out.poly(p).begin());
    }
    return out;
}

Ciphertext Evaluator::rotate(const Ciphertext &a, int step,
                             const GaloisKeys &keys) const {
    util::require(a.size == 2, "rotate expects a size-2 ciphertext");
    const uint64_t elt = galois_.elt_from_step(step);
    if (elt == 1) {
        return a;
    }
    const std::size_t n = a.n;
    Ciphertext out;
    out.resize(n, 2, a.rns);
    out.ntt_form = true;
    out.scale = a.scale;

    std::vector<uint64_t> rotated_c1(a.rns * n);
    for (std::size_t r = 0; r < a.rns; ++r) {
        galois_.apply_ntt(a.component(0, r), elt, out.component(0, r));
        galois_.apply_ntt(a.component(1, r), elt,
                          std::span<uint64_t>(rotated_c1).subspan(r * n, n));
    }
    switch_key_inplace(out, rotated_c1, keys.key(elt));
    return out;
}

Ciphertext Evaluator::conjugate(const Ciphertext &a,
                                const GaloisKeys &keys) const {
    util::require(a.size == 2, "conjugate expects a size-2 ciphertext");
    const uint64_t elt = galois_.conjugation_elt();
    const std::size_t n = a.n;
    Ciphertext out;
    out.resize(n, 2, a.rns);
    out.ntt_form = true;
    out.scale = a.scale;
    std::vector<uint64_t> rotated_c1(a.rns * n);
    for (std::size_t r = 0; r < a.rns; ++r) {
        galois_.apply_ntt(a.component(0, r), elt, out.component(0, r));
        galois_.apply_ntt(a.component(1, r), elt,
                          std::span<uint64_t>(rotated_c1).subspan(r * n, n));
    }
    switch_key_inplace(out, rotated_c1, keys.key(elt));
    return out;
}

}  // namespace xehe::ckks
