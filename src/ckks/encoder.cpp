#include "ckks/encoder.h"

#include <cmath>
#include <numbers>

namespace xehe::ckks {

ComplexFft::ComplexFft(std::size_t n) : n_(n), log_n_(util::log2_exact(n)) {
    const double angle = std::numbers::pi / static_cast<double>(n);
    roots_.resize(n);
    inv_roots_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double theta = angle * static_cast<double>(i);
        roots_[util::reverse_bits(i, log_n_)] = {std::cos(theta),
                                                 std::sin(theta)};
    }
    inv_roots_[0] = {1.0, 0.0};
    for (std::size_t i = 1; i < n; ++i) {
        const double theta = -angle * static_cast<double>(i);
        inv_roots_[util::reverse_bits(i - 1, log_n_) + 1] = {std::cos(theta),
                                                             std::sin(theta)};
    }
}

void ComplexFft::forward(std::span<std::complex<double>> a) const {
    util::require(a.size() == n_, "FFT size mismatch");
    std::size_t gap = n_ >> 1;
    for (std::size_t m = 1; m < n_; m <<= 1) {
        // m groups of `gap` butterflies; group i uses root m + i.
        const std::complex<double> *w = roots_.data() + m;
        std::complex<double> *x = a.data();
        for (std::size_t i = 0; i < m; ++i, ++w, x += 2 * gap) {
            std::complex<double> *y = x + gap;
            for (std::size_t j = 0; j < gap; ++j) {
                const std::complex<double> u = x[j];
                const std::complex<double> v = y[j] * *w;
                x[j] = u + v;
                y[j] = u - v;
            }
        }
        gap >>= 1;
    }
}

void ComplexFft::inverse(std::span<std::complex<double>> a) const {
    util::require(a.size() == n_, "FFT size mismatch");
    std::size_t gap = 1;
    for (std::size_t m = n_ >> 1; m >= 1; m >>= 1) {
        const std::complex<double> *w = inv_roots_.data() + (n_ - 2 * m + 1);
        std::complex<double> *x = a.data();
        for (std::size_t i = 0; i < m; ++i, ++w, x += 2 * gap) {
            std::complex<double> *y = x + gap;
            for (std::size_t j = 0; j < gap; ++j) {
                const std::complex<double> u = x[j];
                const std::complex<double> v = y[j];
                x[j] = u + v;
                y[j] = (u - v) * *w;
            }
        }
        gap <<= 1;
    }
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (auto &x : a) {
        x *= inv_n;
    }
}

CkksEncoder::CkksEncoder(const CkksContext &context)
    : context_(&context), fft_(context.n()) {
    // Galois ordering: slot i sits at the transform position evaluating at
    // ζ^{3^i}; generator 3 has order N/2 mod 2N, covering half the odd
    // exponents, the conjugates covering the rest.
    const std::size_t n = context.n();
    const std::size_t slots = context.slots();
    const uint64_t m = 2 * n;
    index_map_.resize(n);
    uint64_t pos = 1;
    for (std::size_t i = 0; i < slots; ++i) {
        const uint64_t index1 = (pos - 1) >> 1;
        const uint64_t index2 = (m - pos - 1) >> 1;
        index_map_[i] = util::reverse_bits(index1, context.log_n());
        index_map_[i + slots] = util::reverse_bits(index2, context.log_n());
        pos = (pos * 3) % m;
    }
}

Plaintext CkksEncoder::encode(std::span<const std::complex<double>> values,
                              double scale, std::size_t rns_count) const {
    const std::size_t n = context_->n();
    const std::size_t slots = context_->slots();
    util::require(values.size() <= slots, "too many values for slot count");
    util::require(scale > 0, "scale must be positive");
    if (rns_count == 0) {
        rns_count = context_->max_level();
    }
    util::require(rns_count >= 1 && rns_count <= context_->max_level(),
                  "bad rns count");

    // Conjugate-symmetric spread into the Galois slot ordering.
    std::vector<std::complex<double>> conj_values(n, {0.0, 0.0});
    for (std::size_t i = 0; i < values.size(); ++i) {
        conj_values[index_map_[i]] = values[i];
        conj_values[index_map_[i + slots]] = std::conj(values[i]);
    }
    fft_.inverse(conj_values);

    Plaintext plain;
    plain.n = n;
    plain.rns = rns_count;
    plain.scale = scale;
    plain.ntt_form = true;
    plain.data.resize(rns_count * n);

    for (std::size_t k = 0; k < n; ++k) {
        const double coeff = conj_values[k].real() * scale;
        util::require(std::abs(coeff) < std::ldexp(1.0, 62),
                      "encoded coefficient exceeds 62 bits; reduce the scale");
        const long long rounded = std::llround(coeff);
        for (std::size_t r = 0; r < rns_count; ++r) {
            const Modulus &q = context_->key_modulus()[r];
            plain.data[r * n + k] =
                rounded >= 0
                    ? util::barrett_reduce_64(static_cast<uint64_t>(rounded), q)
                    : util::negate_mod(util::barrett_reduce_64(
                                           static_cast<uint64_t>(-rounded), q),
                                       q);
        }
    }
    poly::ntt(plain.data, context_->tables(rns_count), n);
    return plain;
}

Plaintext CkksEncoder::encode(std::span<const double> values, double scale,
                              std::size_t rns_count) const {
    std::vector<std::complex<double>> complex_values(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        complex_values[i] = {values[i], 0.0};
    }
    return encode(std::span<const std::complex<double>>(complex_values), scale,
                  rns_count);
}

Plaintext CkksEncoder::encode(double value, double scale,
                              std::size_t rns_count) const {
    std::vector<std::complex<double>> broadcast(context_->slots(), {value,
                                                                    0.0});
    return encode(std::span<const std::complex<double>>(broadcast), scale,
                  rns_count);
}

std::vector<std::complex<double>> CkksEncoder::decode(
    const Plaintext &plain) const {
    const std::size_t n = context_->n();
    const std::size_t slots = context_->slots();
    // Validate before anything indexes by plain.rns or plain.data.
    util::require(plain.n == n && plain.rns >= 1 &&
                      plain.rns <= context_->max_level(),
                  "malformed plaintext");
    util::require(plain.data.size() == plain.rns * n,
                  "plaintext data size mismatch");
    util::require(plain.ntt_form, "decode expects NTT form");

    // Back to coefficient representation.
    std::vector<uint64_t> coeffs = plain.data;
    poly::intt(coeffs, context_->tables(plain.rns), n);

    // CRT-compose each coefficient, center, and scale down.
    std::vector<double> composed(n);
    context_->data_base(plain.rns).compose_centered(coeffs, composed);
    std::vector<std::complex<double>> values(n);
    for (std::size_t k = 0; k < n; ++k) {
        values[k] = {composed[k] / plain.scale, 0.0};
    }

    fft_.forward(values);
    std::vector<std::complex<double>> result(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        result[i] = values[index_map_[i]];
    }
    return result;
}

}  // namespace xehe::ckks
