#include "rns/rns_base.h"

#include <algorithm>

namespace xehe::rns {

namespace {

/// Largest base compose_centered accepts, and the margin it subtracts from
/// its floating-point quotient estimate.  Summing n terms below 1, each
/// within 2^-51 of s_i / q_i, lands within (4n + n^2) * 2^-53 of the true
/// sum, under 2^-28 for n <= 4096; subtracting 2^-20 therefore keeps the
/// estimate's floor at or below the true quotient, and at most one below.
constexpr std::size_t kMaxComposePrimes = 4096;
constexpr double kQuotientMargin = 0x1p-20;

/// `value` as `width` little-endian words, zero-padded.
std::vector<uint64_t> padded_words(const BigUInt &value, std::size_t width) {
    std::vector<uint64_t> out(width, 0);
    std::copy(value.words().begin(), value.words().end(), out.begin());
    return out;
}

/// a >= b over `width` little-endian words.
bool geq_words(const uint64_t *a, const uint64_t *b,
               std::size_t width) noexcept {
    for (std::size_t i = width; i-- > 0;) {
        if (a[i] != b[i]) {
            return a[i] > b[i];
        }
    }
    return true;
}

/// out = a - b mod 2^(64 width) over `width` words.  `out` may alias
/// either operand.
void sub_words(const uint64_t *a, const uint64_t *b, uint64_t *out,
               std::size_t width) noexcept {
    unsigned borrow = 0;
    for (std::size_t i = 0; i < width; ++i) {
        const uint64_t lhs = a[i];
        const uint64_t rhs = b[i];
        out[i] = lhs - rhs - borrow;
        borrow = (lhs < rhs || (lhs == rhs && borrow)) ? 1u : 0u;
    }
}

/// BigUInt::to_double's Horner from the top word down; leading zero words
/// contribute exactly 0.0.
double words_to_double(const uint64_t *a, std::size_t width) noexcept {
    double result = 0.0;
    for (std::size_t i = width; i-- > 0;) {
        result = result * 18446744073709551616.0 + static_cast<double>(a[i]);
    }
    return result;
}

}  // namespace

RnsBase::RnsBase(std::vector<Modulus> moduli) : moduli_(std::move(moduli)) {
    util::require(!moduli_.empty(), "RNS base must not be empty");
    product_ = BigUInt(1);
    for (const auto &q : moduli_) {
        product_.mul_word_assign(q.value());
    }
    punctured_.reserve(moduli_.size());
    inv_punctured_.reserve(moduli_.size());
    for (std::size_t i = 0; i < moduli_.size(); ++i) {
        BigUInt punctured(1);
        for (std::size_t j = 0; j < moduli_.size(); ++j) {
            if (j != i) {
                punctured.mul_word_assign(moduli_[j].value());
            }
        }
        const uint64_t residue = punctured.mod_word(moduli_[i]);
        uint64_t inv = 0;
        util::require(util::try_invert_mod(residue, moduli_[i], &inv),
                      "RNS moduli must be pairwise coprime");
        punctured_.push_back(std::move(punctured));
        inv_punctured_.emplace_back(inv, moduli_[i]);
    }
    // Words to hold 2Q - 1, the largest partially reduced value.
    width_ =
        static_cast<std::size_t>(product_.significant_bit_count()) / 64 + 1;
    product_words_ = padded_words(product_, width_);
    half_words_ = padded_words(product_.shr1(), width_);
    // 2^(64 width_) - Q: adding k times it subtracts kQ mod 2^(64 width_).
    std::vector<uint64_t> negated(width_, 0);
    sub_words(negated.data(), product_words_.data(), negated.data(), width_);
    const std::size_t terms = size() + 1;
    columns_.assign(width_ * terms, 0);
    for (std::size_t i = 0; i < size(); ++i) {
        const auto words = padded_words(punctured_[i], width_);
        for (std::size_t w = 0; w < width_; ++w) {
            columns_[w * terms + i] = words[w];
        }
    }
    for (std::size_t w = 0; w < width_; ++w) {
        columns_[w * terms + size()] = negated[w];
    }
    for (const auto &q : moduli_) {
        inv_moduli_.push_back(1.0 / static_cast<double>(q.value()));
    }
}

void RnsBase::decompose(const BigUInt &value, std::span<uint64_t> out) const {
    util::require(out.size() == size(), "residue span size mismatch");
    for (std::size_t i = 0; i < size(); ++i) {
        out[i] = value.mod_word(moduli_[i]);
    }
}

BigUInt RnsBase::compose(std::span<const uint64_t> residues) const {
    util::require(residues.size() == size(), "residue span size mismatch");
    BigUInt acc(0);
    for (std::size_t i = 0; i < size(); ++i) {
        const uint64_t scaled =
            util::mul_mod(residues[i], inv_punctured_[i], moduli_[i]);
        BigUInt term = punctured_[i];
        term.mul_word_assign(scaled);
        acc.add_assign(term);
    }
    // acc < size() * Q: reduce by repeated subtraction.
    while (acc >= product_) {
        acc.sub_assign(product_);
    }
    return acc;
}

void RnsBase::compose_centered(std::span<const uint64_t> residues,
                               std::span<double> out) const {
    const std::size_t count = out.size();
    util::require(residues.size() == size() * count,
                  "residue span size mismatch");
    util::require(size() <= kMaxComposePrimes, "RNS base too large");
    const std::size_t terms = size() + 1;
    std::vector<uint64_t> scaled(terms, 0);
    std::vector<uint64_t> x(width_, 0);
    for (std::size_t k = 0; k < count; ++k) {
        // x = Σ s_i·(Q/q_i) with s_i = [r_i·(Q/q_i)^{-1}]_{q_i} is the CRT
        // sum, below size()·Q, and floor(x / Q) = floor(Σ s_i / q_i).  The
        // extra term's k is that quotient estimated in floating point,
        // never above it and at most one below, so x - kQ is in [0, 2Q).
        double quotient = -kQuotientMargin;
        for (std::size_t i = 0; i < size(); ++i) {
            scaled[i] = util::mul_mod(residues[i * count + k],
                                      inv_punctured_[i], moduli_[i]);
            quotient += static_cast<double>(scaled[i]) * inv_moduli_[i];
        }
        scaled[size()] = quotient > 0.0 ? static_cast<uint64_t>(quotient) : 0;

        // Product scanning: word w of x - kQ = Σ s_i·(Q/q_i) +
        // k·(2^(64 width_) - Q) mod 2^(64 width_).  Per column, the low and
        // the high words of the products sum separately into 128-bit
        // accumulators, which cannot overflow for fewer than 2^63 terms, so
        // no step tests for a carry.
        const uint64_t *column = columns_.data();
        util::uint128_t carry = 0;
        for (std::size_t w = 0; w < width_; ++w, column += terms) {
            util::uint128_t low = carry;
            util::uint128_t high = 0;
            for (std::size_t i = 0; i < terms; ++i) {
                const util::uint128_t product =
                    static_cast<util::uint128_t>(column[i]) * scaled[i];
                low += static_cast<uint64_t>(product);
                high += static_cast<uint64_t>(product >> 64);
            }
            x[w] = static_cast<uint64_t>(low);
            carry = (low >> 64) + high;
        }
        if (geq_words(x.data(), product_words_.data(), width_)) {
            sub_words(x.data(), product_words_.data(), x.data(), width_);
        }
        if (geq_words(x.data(), half_words_.data(), width_)) {
            sub_words(product_words_.data(), x.data(), x.data(), width_);
            out[k] = -words_to_double(x.data(), width_);
        } else {
            out[k] = words_to_double(x.data(), width_);
        }
    }
}

BaseConverter::BaseConverter(const RnsBase &in, std::vector<Modulus> out)
    : in_(&in), out_(std::move(out)) {
    punctured_mod_out_.resize(out_.size());
    for (std::size_t j = 0; j < out_.size(); ++j) {
        punctured_mod_out_[j].resize(in.size());
        for (std::size_t i = 0; i < in.size(); ++i) {
            punctured_mod_out_[j][i] = in.punctured(i).mod_word(out_[j]);
        }
    }
}

void BaseConverter::convert(std::span<const uint64_t> in,
                            std::span<uint64_t> out) const {
    util::require(in.size() == in_->size() && out.size() == out_.size(),
                  "base conversion size mismatch");
    // Scale each residue by the inverse punctured product first; the sum
    // Σ s_i (Q/q_i) equals x + k·Q with k = floor(Σ s_i / q_i), which the
    // floating-point estimate below corrects (HPS).
    std::vector<uint64_t> scaled(in.size());
    long double k_estimate = 0.0L;
    for (std::size_t i = 0; i < in.size(); ++i) {
        scaled[i] = util::mul_mod(in[i], in_->inv_punctured(i), (*in_)[i]);
        k_estimate += static_cast<long double>(scaled[i]) /
                      static_cast<long double>((*in_)[i].value());
    }
    // Round-to-nearest: exact for values away from Q/2; values above Q/2
    // come out centered (off by exactly -Q), which downstream consumers of
    // the fast conversion tolerate.
    const uint64_t k = static_cast<uint64_t>(k_estimate + 0.5L);
    for (std::size_t j = 0; j < out_.size(); ++j) {
        uint64_t acc = 0;
        const Modulus &p = out_[j];
        for (std::size_t i = 0; i < in.size(); ++i) {
            acc = util::mad_mod(scaled[i], punctured_mod_out_[j][i], acc, p);
        }
        const uint64_t kq = util::mul_mod(k, in_->product().mod_word(p), p);
        out[j] = util::sub_mod(acc, kq, p);
    }
}

}  // namespace xehe::rns
