#include "ntt/ntt_ref.h"

namespace xehe::ntt {

namespace {

/// One radix-2 Cooley-Tukey round: m groups of `gap` butterflies, group i
/// using the single twiddle root_powers()[m + i].
void forward_round(std::span<uint64_t> a, const NttTables &tables,
                   std::size_t m, std::size_t gap) {
    const Modulus &q = tables.modulus();
    const MultiplyModOperand *w = tables.root_powers().data() + m;
    uint64_t *x = a.data();
    for (std::size_t i = 0; i < m; ++i, ++w, x += 2 * gap) {
        uint64_t *y = x + gap;
        for (std::size_t j = 0; j < gap; ++j) {
            util::forward_butterfly(x + j, y + j, *w, q);
        }
    }
}

/// One radix-2 Gentleman-Sande inverse round (m groups, stride `gap`).
void inverse_round(std::span<uint64_t> a, const NttTables &tables,
                   std::size_t m, std::size_t gap) {
    const Modulus &q = tables.modulus();
    const MultiplyModOperand *w =
        tables.inv_root_powers().data() + (tables.n() - 2 * m + 1);
    uint64_t *x = a.data();
    for (std::size_t i = 0; i < m; ++i, ++w, x += 2 * gap) {
        uint64_t *y = x + gap;
        for (std::size_t j = 0; j < gap; ++j) {
            util::inverse_butterfly(x + j, y + j, *w, q);
        }
    }
}

}  // namespace

void ntt_forward(std::span<uint64_t> a, const NttTables &tables) {
    const std::size_t n = tables.n();
    util::require(a.size() == n, "size mismatch");
    std::size_t gap = n >> 1;
    for (std::size_t m = 1; m < n; m <<= 1) {
        forward_round(a, tables, m, gap);
        gap >>= 1;
    }
    // Last-round processing: reduce the lazy range [0, 4q) to [0, q).
    const Modulus &q = tables.modulus();
    for (auto &x : a) {
        x = util::reduce_from_4p(x, q);
    }
}

void ntt_inverse(std::span<uint64_t> a, const NttTables &tables) {
    const std::size_t n = tables.n();
    util::require(a.size() == n, "size mismatch");
    const Modulus &q = tables.modulus();
    std::size_t gap = 1;
    for (std::size_t m = n >> 1; m >= 1; m >>= 1) {
        inverse_round(a, tables, m, gap);
        gap <<= 1;
    }
    // Scale by N^{-1} and reduce to [0, q).
    for (auto &x : a) {
        uint64_t v = x;
        if (v >= 2 * q.value()) {
            v -= 2 * q.value();
        }
        if (v >= q.value()) {
            v -= q.value();
        }
        x = util::mul_mod(v, tables.inv_degree(), q);
    }
}

void naive_negacyclic_ntt(std::span<const uint64_t> a, std::span<uint64_t> out,
                          const NttTables &tables) {
    const std::size_t n = tables.n();
    const Modulus &q = tables.modulus();
    for (std::size_t j = 0; j < n; ++j) {
        const uint64_t exponent_base =
            2 * util::reverse_bits(j, tables.log_n()) + 1;
        const uint64_t omega = util::pow_mod(tables.psi(), exponent_base, q);
        uint64_t acc = 0;
        uint64_t w = 1;
        for (std::size_t k = 0; k < n; ++k) {
            acc = util::mad_mod(a[k], w, acc, q);
            w = util::mul_mod(w, omega, q);
        }
        out[j] = acc;
    }
}

void naive_negacyclic_multiply(std::span<const uint64_t> a,
                               std::span<const uint64_t> b,
                               std::span<uint64_t> c, const Modulus &q) {
    const std::size_t n = a.size();
    for (std::size_t k = 0; k < n; ++k) {
        uint64_t acc = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j = (k + n - i) % n;
            const uint64_t prod = util::mul_mod(a[i], b[j], q);
            if (i <= k) {
                acc = util::add_mod(acc, prod, q);
            } else {
                acc = util::sub_mod(acc, prod, q);  // wrapped term: negacyclic
            }
        }
        c[k] = acc;
    }
}

}  // namespace xehe::ntt
