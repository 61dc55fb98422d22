// Generic prime-field element in Montgomery form over a 254/255-bit modulus.
//
// The Params tag type supplies the modulus (and, for FFT-friendly fields, a
// multiplicative generator and two-adicity). All Montgomery constants (R mod
// p, R^2 mod p, -p^{-1} mod 2^64) are derived at first use so no hand-typed
// magic constants can silently be wrong.
#ifndef SRC_FF_FP_H_
#define SRC_FF_FP_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/ff/mont_mul_x86.h"
#include "src/ff/u256.h"

// The add/sub family is a few dozen instructions and sits inside every hot
// loop (the MSM's point additions, FFT butterflies), yet GCC's inliner
// leaves it as an out-of-line call inside large callers such as
// G1::operator+; forced inlining keeps the operands in registers.
#if defined(__GNUC__)
#define ZKML_FIELD_INLINE inline __attribute__((always_inline))
#else
#define ZKML_FIELD_INLINE inline
#endif

namespace zkml {

struct MontgomeryContext {
  U256 modulus;
  U256 r;         // 2^256 mod p (the Montgomery form of 1)
  U256 r2;        // 2^512 mod p (used to convert into Montgomery form)
  U256 p_minus_2; // exponent for Fermat inversion
  uint64_t inv;   // -p^{-1} mod 2^64
  int bits;       // bit length of p

  static MontgomeryContext Build(const U256& modulus);
};

template <typename Params>
class Fp {
 public:
  Fp() = default;

  static const MontgomeryContext& Ctx() {
    static const MontgomeryContext ctx = MontgomeryContext::Build(Params::Modulus());
    return ctx;
  }

  // Compile-time modulus and -p^{-1} mod 2^64. The hot arithmetic below uses
  // these instead of Ctx() so the limbs become instruction immediates; Ctx()
  // still serves the cold paths (conversion constants, inversion exponent).
  static constexpr U256 Mod() {
    return U256{{Params::kModulusLimbs[0], Params::kModulusLimbs[1], Params::kModulusLimbs[2],
                 Params::kModulusLimbs[3]}};
  }
  static constexpr uint64_t ModNegInv() {
    uint64_t x = 1;  // Newton iteration: x_{k+1} = x_k (2 - p x_k) mod 2^64
    for (int i = 0; i < 6; ++i) {
      x *= 2 - Params::kModulusLimbs[0] * x;
    }
    return ~x + 1;
  }
  // Two spare bits in the top limb make the fused CIOS carries safe. Both
  // BN254 fields qualify; the generic double-wide path remains as fallback.
  static constexpr bool kNoCarry = Params::kModulusLimbs[3] < (1ULL << 62);

  static Fp Zero() { return Fp(); }
  static Fp One() {
    Fp r;
    r.v_ = Ctx().r;
    return r;
  }

  static Fp FromU64(uint64_t x) { return FromCanonical(U256::FromU64(x)); }

  // Signed embedding: negative integers map to p - |x|.
  static Fp FromInt64(int64_t x) {
    if (x >= 0) {
      return FromU64(static_cast<uint64_t>(x));
    }
    return FromU64(static_cast<uint64_t>(-x)).Neg();
  }

  // `raw` must already be reduced (< p).
  static Fp FromCanonical(const U256& raw) {
    ZKML_DCHECK(CmpU256(raw, Ctx().modulus) < 0);
    Fp r;
    r.v_ = MontMul(raw, Ctx().r2);
    return r;
  }

  static Fp FromHex(const std::string& hex) { return FromCanonical(U256::FromHex(hex)); }

  // Uniform random element by rejection sampling.
  static Fp Random(Rng& rng) {
    const MontgomeryContext& ctx = Ctx();
    for (;;) {
      U256 raw;
      for (uint64_t& l : raw.limbs) {
        l = rng.NextU64();
      }
      // Clear bits above the modulus bit-length to make acceptance likely.
      const int top = ctx.bits;
      for (int b = 255; b >= top; --b) {
        raw.limbs[b / 64] &= ~(1ULL << (b % 64));
      }
      if (CmpU256(raw, ctx.modulus) < 0) {
        return FromCanonical(raw);
      }
    }
  }

  U256 ToCanonical() const { return MontMul(v_, U256::FromU64(1)); }

  // Decodes a field element that is known to encode a small signed integer
  // (|x| < 2^63): canonical values above p/2 are interpreted as negative.
  int64_t ToCenteredInt64() const {
    const MontgomeryContext& ctx = Ctx();
    U256 c = ToCanonical();
    U256 half = ShrU256(ctx.modulus, 1);
    if (CmpU256(c, half) > 0) {
      U256 neg;
      SubU256(ctx.modulus, c, &neg);
      ZKML_CHECK_MSG(neg.limbs[1] == 0 && neg.limbs[2] == 0 && neg.limbs[3] == 0 &&
                         neg.limbs[0] <= static_cast<uint64_t>(INT64_MAX),
                     "field element does not fit a centered int64");
      return -static_cast<int64_t>(neg.limbs[0]);
    }
    ZKML_CHECK_MSG(c.limbs[1] == 0 && c.limbs[2] == 0 && c.limbs[3] == 0 &&
                       c.limbs[0] <= static_cast<uint64_t>(INT64_MAX),
                   "field element does not fit a centered int64");
    return static_cast<int64_t>(c.limbs[0]);
  }

  bool IsZero() const { return v_.IsZero(); }

  bool operator==(const Fp& o) const { return v_ == o.v_; }
  bool operator!=(const Fp& o) const { return !(v_ == o.v_); }

  // Addition and subtraction are branch-free: both candidate results are
  // computed and one is selected by mask. The carry and borrow depend on the
  // data: a branch on them mispredicts about half the time on random field
  // values, and each mispredict costs more than the arithmetic itself.
  ZKML_FIELD_INLINE Fp operator+(const Fp& o) const {
    Fp r;
    U256 s;
    const uint64_t carry = AddU256(v_, o.v_, &s);
    r.v_ = ReduceOnce(s, carry);
    return r;
  }

  ZKML_FIELD_INLINE Fp operator-(const Fp& o) const {
    constexpr U256 kMod = Mod();
    U256 d, t;
    const uint64_t borrow = SubU256(v_, o.v_, &d);
    AddU256(d, kMod, &t);
    Fp r;
    r.v_ = Select(0 - borrow, t, d);
    return r;
  }

  Fp operator*(const Fp& o) const {
    Fp r;
    r.v_ = MontMul(v_, o.v_);
    return r;
  }

  Fp& operator+=(const Fp& o) { return *this = *this + o; }
  Fp& operator-=(const Fp& o) { return *this = *this - o; }
  Fp& operator*=(const Fp& o) { return *this = *this * o; }

  ZKML_FIELD_INLINE Fp Neg() const {
    constexpr U256 kMod = Mod();
    U256 d;
    SubU256(kMod, v_, &d);
    // -0 is 0, not p: keep p - v only when v is nonzero.
    const uint64_t nonzero = (v_.limbs[0] | v_.limbs[1] | v_.limbs[2] | v_.limbs[3]) != 0;
    Fp r;
    r.v_ = Select(0 - nonzero, d, U256::Zero());
    return r;
  }
  Fp operator-() const { return Neg(); }

  // 2v as a one-bit left shift across the limbs, then one conditional
  // subtraction of p.
  ZKML_FIELD_INLINE Fp Double() const {
    const uint64_t* l = v_.limbs;
    const U256 s{{l[0] << 1, (l[1] << 1) | (l[0] >> 63), (l[2] << 1) | (l[1] >> 63),
                  (l[3] << 1) | (l[2] >> 63)}};
    Fp r;
    r.v_ = ReduceOnce(s, l[3] >> 63);
    return r;
  }
  Fp Square() const { return *this * *this; }

  Fp Pow(const U256& e) const {
    Fp acc = One();
    int hb = e.HighestBit();
    for (int i = hb; i >= 0; --i) {
      acc = acc.Square();
      if (e.Bit(i)) {
        acc = acc * *this;
      }
    }
    return acc;
  }
  Fp Pow(uint64_t e) const { return Pow(U256::FromU64(e)); }

  // Fermat inversion; returns zero for zero (callers that care must check).
  Fp Inverse() const {
    if (IsZero()) {
      return Zero();
    }
    return Pow(Ctx().p_minus_2);
  }

  // Multiplication through the portable CIOS paths, bypassing the asm
  // dispatch in MontMul. Exists so ff_test can cross-check all three
  // implementations on the same inputs; not for production use.
  static Fp MulPortableNoCarry(const Fp& a, const Fp& b) {
    static_assert(kNoCarry, "field does not satisfy the no-carry bound");
    Fp r;
    r.v_ = MontMulNoCarry(a.v_, b.v_);
    return r;
  }
  static Fp MulPortableGeneric(const Fp& a, const Fp& b) {
    Fp r;
    r.v_ = MontMulGeneric(a.v_, b.v_, Ctx());
    return r;
  }

  // Internal Montgomery representation (for serialization fast paths).
  const U256& MontgomeryForm() const { return v_; }
  static Fp FromMontgomeryForm(const U256& v) {
    Fp r;
    r.v_ = v;
    return r;
  }

 private:
  // mask ? a : b, for a mask of all ones or all zeros.
  ZKML_FIELD_INLINE static U256 Select(uint64_t mask, const U256& a, const U256& b) {
    U256 r;
    for (int i = 0; i < 4; ++i) {
      r.limbs[i] = (a.limbs[i] & mask) | (b.limbs[i] & ~mask);
    }
    return r;
  }

  // Reduces s + carry * 2^256, known to be below 2p, into [0, p): s - p when
  // that does not borrow or the carry is set, else s. The borrow chain
  // doubles as the >= p comparison; no branch depends on the data.
  ZKML_FIELD_INLINE static U256 ReduceOnce(const U256& s, uint64_t carry) {
    constexpr U256 kMod = Mod();
    U256 t;
    const uint64_t borrow = SubU256(s, kMod, &t);
    return Select(0 - (borrow & (carry ^ 1)), s, t);
  }

  static U256 MontMul(const U256& a, const U256& b) {
    if constexpr (kNoCarry) {
#ifdef ZKML_HAVE_MONT_MUL_X86
      static constexpr U256 kMod = Mod();
      U256 r;
      MontMul4x64(r.limbs, a.limbs, b.limbs, kMod.limbs, ModNegInv());
      return r;
#else
      return MontMulNoCarry(a, b);
#endif
    } else {
      return MontMulGeneric(a, b, Ctx());
    }
  }

  // Fused multiply-and-reduce CIOS ("no-carry" variant): interleaves the
  // a[i]*b accumulation and the m*p reduction per outer limb, keeping each
  // running carry in a single 64-bit word. Valid only when the top limb of p
  // leaves two spare bits (kNoCarry), which guarantees A + C below cannot
  // wrap. Identical output to the generic path, ~25% fewer carry chains.
  static U256 MontMulNoCarry(const U256& a, const U256& b) {
    constexpr U256 kMod = Mod();
    constexpr uint64_t kInv = ModNegInv();
    const uint64_t* p = kMod.limbs;
    uint64_t t[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 cur = static_cast<unsigned __int128>(a.limbs[i]) * b.limbs[0] + t[0];
      uint64_t A = static_cast<uint64_t>(cur >> 64);
      const uint64_t t0 = static_cast<uint64_t>(cur);
      const uint64_t m = t0 * kInv;
      cur = static_cast<unsigned __int128>(m) * p[0] + t0;
      uint64_t C = static_cast<uint64_t>(cur >> 64);
      for (int j = 1; j < 4; ++j) {
        cur = static_cast<unsigned __int128>(a.limbs[i]) * b.limbs[j] + t[j] + A;
        A = static_cast<uint64_t>(cur >> 64);
        cur = static_cast<unsigned __int128>(m) * p[j] + static_cast<uint64_t>(cur) + C;
        C = static_cast<uint64_t>(cur >> 64);
        t[j - 1] = static_cast<uint64_t>(cur);
      }
      t[3] = A + C;
    }
    return ReduceOnce(U256{{t[0], t[1], t[2], t[3]}}, 0);
  }

  static U256 MontMulGeneric(const U256& a, const U256& b, const MontgomeryContext& ctx) {
    const uint64_t* p = ctx.modulus.limbs;
    uint64_t t[6] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      // t += a[i] * b
      unsigned __int128 carry = 0;
      for (int j = 0; j < 4; ++j) {
        unsigned __int128 cur =
            static_cast<unsigned __int128>(a.limbs[i]) * b.limbs[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      unsigned __int128 sum = static_cast<unsigned __int128>(t[4]) + carry;
      t[4] = static_cast<uint64_t>(sum);
      t[5] = static_cast<uint64_t>(sum >> 64);

      // Reduction: add m*p where m = t[0] * (-p^{-1}) so t[0] vanishes.
      const uint64_t m = t[0] * ctx.inv;
      unsigned __int128 cur = static_cast<unsigned __int128>(m) * p[0] + t[0];
      carry = cur >> 64;
      for (int j = 1; j < 4; ++j) {
        cur = static_cast<unsigned __int128>(m) * p[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      sum = static_cast<unsigned __int128>(t[4]) + carry;
      t[3] = static_cast<uint64_t>(sum);
      t[4] = t[5] + static_cast<uint64_t>(sum >> 64);
      t[5] = 0;
    }
    U256 r{{t[0], t[1], t[2], t[3]}};
    U256 s;
    const uint64_t borrow = SubU256(r, ctx.modulus, &s);
    return Select(0 - (borrow & static_cast<uint64_t>(t[4] == 0)), r, s);
  }

  U256 v_;  // Montgomery form: v_ = x * 2^256 mod p
};

// Inverts n elements known to be nonzero, in place, using Montgomery's batch
// trick with four interleaved prefix chains. A single running product is a
// serial multiply chain bound by full MontMul latency; four independent
// chains let the core overlap them. `prefix` is caller-provided scratch so
// hot loops can reuse the allocation. Inverses are unique, so the output is
// bit-identical to the single-chain variant below.
template <typename F>
void BatchInverseNonZero(F* xs, size_t n, std::vector<F>& prefix) {
  constexpr size_t K = 4;
  if (n == 0) {
    return;
  }
  prefix.resize(n);
  F acc[K] = {F::One(), F::One(), F::One(), F::One()};
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc[i % K];
    acc[i % K] *= xs[i];
  }
  // Split the inverse of the combined product back into one inverse per
  // chain: acc[k]^{-1} = total^{-1} * prod_{j != k} acc[j].
  const F total_inv = (acc[0] * acc[1] * acc[2] * acc[3]).Inverse();
  F pre[K], suf[K];
  pre[0] = F::One();
  for (size_t k = 1; k < K; ++k) {
    pre[k] = pre[k - 1] * acc[k - 1];
  }
  suf[K - 1] = F::One();
  for (size_t k = K - 1; k-- > 0;) {
    suf[k] = suf[k + 1] * acc[k + 1];
  }
  F inv[K];
  for (size_t k = 0; k < K; ++k) {
    inv[k] = total_inv * pre[k] * suf[k];
  }
  for (size_t i = n; i-- > 0;) {
    const F orig = xs[i];
    xs[i] = inv[i % K] * prefix[i];
    inv[i % K] *= orig;
  }
}

// Inverts every nonzero element of `xs` in place using Montgomery's batch
// trick (one field inversion + 3n multiplications). Zero entries stay zero.
template <typename F>
void BatchInverse(std::vector<F>* xs) {
  const size_t n = xs->size();
  std::vector<F> prefix(n);
  F acc = F::One();
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    if (!(*xs)[i].IsZero()) {
      acc *= (*xs)[i];
    }
  }
  F inv = acc.Inverse();
  for (size_t i = n; i-- > 0;) {
    if ((*xs)[i].IsZero()) {
      continue;
    }
    F orig = (*xs)[i];
    (*xs)[i] = inv * prefix[i];
    inv *= orig;
  }
}

}  // namespace zkml

#endif  // SRC_FF_FP_H_
