#include "src/ec/glv.h"

#include "src/base/check.h"
#include "src/ec/g1.h"

namespace zkml {
namespace {

// 512-bit scratch arithmetic for the lattice derivation and the per-scalar
// Babai products. Little-endian limbs, like U256.
struct U512 {
  uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  bool IsZero() const {
    for (int i = 0; i < 8; ++i) {
      if (v[i] != 0) {
        return false;
      }
    }
    return true;
  }
};

U512 Ext(const U256& a) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    r.v[i] = a.limbs[i];
  }
  return r;
}

// a << (64 * limbs); limbs shifted beyond 512 bits must be zero.
U512 ShlLimbs(const U256& a, int limbs) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    if (i + limbs < 8) {
      r.v[i + limbs] = a.limbs[i];
    } else {
      ZKML_CHECK(a.limbs[i] == 0);
    }
  }
  return r;
}

int Cmp512(const U512& a, const U512& b) {
  for (int i = 7; i >= 0; --i) {
    if (a.v[i] < b.v[i]) {
      return -1;
    }
    if (a.v[i] > b.v[i]) {
      return 1;
    }
  }
  return 0;
}

uint64_t Add512(const U512& a, const U512& b, U512* r) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const unsigned __int128 cur = carry + a.v[i] + b.v[i];
    r->v[i] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  return static_cast<uint64_t>(carry);
}

uint64_t Sub512(const U512& a, const U512& b, U512* r) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 8; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a.v[i]) - b.v[i] - borrow;
    r->v[i] = static_cast<uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return static_cast<uint64_t>(borrow);
}

// Full 256x256 -> 512 schoolbook product.
U512 Mul256(const U256& a, const U256& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(a.limbs[i]) * b.limbs[j] +
                                    r.v[i + j] + static_cast<uint64_t>(carry);
      r.v[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    r.v[i + 4] = static_cast<uint64_t>(carry);
  }
  return r;
}

// floor(a / b) by binary long division; the quotient must fit 256 bits
// (checked). Startup-only — the per-scalar path never divides.
U256 DivU512(const U512& a, const U256& b, U256* rem) {
  ZKML_CHECK(!b.IsZero());
  U256 q, r;
  for (int i = 511; i >= 0; --i) {
    // r = (r << 1) | bit_i(a); if r overflowed 256 bits it is certainly >= b.
    const uint64_t top = r.limbs[3] >> 63;
    for (int l = 3; l > 0; --l) {
      r.limbs[l] = (r.limbs[l] << 1) | (r.limbs[l - 1] >> 63);
    }
    r.limbs[0] = (r.limbs[0] << 1) | ((a.v[i / 64] >> (i % 64)) & 1);
    if (top != 0 || CmpU256(r, b) >= 0) {
      SubU256(r, b, &r);
      ZKML_CHECK(i < 256);
      q.limbs[i / 64] |= 1ULL << (i % 64);
    }
  }
  if (rem != nullptr) {
    *rem = r;
  }
  return q;
}

// Sign-magnitude integers. Invariant: zero has neg == false.
struct S256 {
  U256 mag;
  bool neg = false;
};

struct S512 {
  U512 mag;
  bool neg = false;
};

S256 Negate(const S256& a) { return S256{a.mag, a.mag.IsZero() ? false : !a.neg}; }

S512 Negate(const S512& a) { return S512{a.mag, a.mag.IsZero() ? false : !a.neg}; }

S256 Sub256(const S256& a, const S256& b) {
  if (a.neg != b.neg) {
    // Same as adding magnitudes under a's sign.
    S256 r;
    ZKML_CHECK(AddU256(a.mag, b.mag, &r.mag) == 0);
    r.neg = a.neg;
    return r;
  }
  S256 r;
  const int cmp = CmpU256(a.mag, b.mag);
  if (cmp >= 0) {
    SubU256(a.mag, b.mag, &r.mag);
    r.neg = (cmp == 0) ? false : a.neg;
  } else {
    SubU256(b.mag, a.mag, &r.mag);
    r.neg = !a.neg;
  }
  return r;
}

S512 Mul(const S256& a, const S256& b) {
  S512 r;
  r.mag = Mul256(a.mag, b.mag);
  r.neg = r.mag.IsZero() ? false : (a.neg != b.neg);
  return r;
}

S512 Add(const S512& a, const S512& b) {
  S512 r;
  if (a.neg == b.neg) {
    ZKML_CHECK(Add512(a.mag, b.mag, &r.mag) == 0);
    r.neg = r.mag.IsZero() ? false : a.neg;
    return r;
  }
  const int cmp = Cmp512(a.mag, b.mag);
  if (cmp >= 0) {
    Sub512(a.mag, b.mag, &r.mag);
    r.neg = (cmp == 0) ? false : a.neg;
  } else {
    Sub512(b.mag, a.mag, &r.mag);
    r.neg = !a.neg;
  }
  return r;
}

S512 Sub(const S512& a, const S512& b) { return Add(a, Negate(b)); }

// (p + 2^319) >> 320: the Babai coefficient round(k * |b| / r) computed from
// the precomputed 2^320-scaled reciprocal. The two floors lose at most ~2
// units total versus the exact rational, which only widens |k1|, |k2| by a
// couple of short-vector lengths — covered by the kGlvBits slack.
U256 RoundShift320(U512 p) {
  unsigned __int128 carry = 1ULL << 63;
  for (int i = 4; i < 8; ++i) {
    const unsigned __int128 cur = carry + p.v[i];
    p.v[i] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  ZKML_CHECK(carry == 0);
  U256 r;
  r.limbs[0] = p.v[5];
  r.limbs[1] = p.v[6];
  r.limbs[2] = p.v[7];
  return r;
}

U256 Low256Checked(const U512& a) {
  for (int i = 4; i < 8; ++i) {
    ZKML_CHECK(a.v[i] == 0);
  }
  U256 r;
  for (int i = 0; i < 4; ++i) {
    r.limbs[i] = a.v[i];
  }
  return r;
}

Fr SignedToFr(const U256& mag, bool neg) {
  const Fr f = Fr::FromCanonical(mag);
  return neg ? f.Neg() : f;
}

// Squared Euclidean norm |a|^2 + |b|^2, saturating to all-ones on (impossible
// in practice) overflow so the comparison still prefers the other candidate.
U512 NormSq(const S256& a, const S256& b) {
  U512 r;
  if (Add512(Mul256(a.mag, a.mag), Mul256(b.mag, b.mag), &r) != 0) {
    for (int i = 0; i < 8; ++i) {
      r.v[i] = ~0ULL;
    }
  }
  return r;
}

}  // namespace

Glv::Glv() {
  const U256 n = FrParams::Modulus();
  const U256 one = U256::FromU64(1);
  U256 n_minus_1;
  SubU256(n, one, &n_minus_1);

  // lambda = 5^((r-1)/3): 5 generates Fr*, so this is a primitive cube root
  // of unity, i.e. lambda^2 + lambda + 1 == 0 (mod r).
  const U256 three = U256::FromU64(3);
  U256 rem;
  const U256 exp_r = DivU512(Ext(n_minus_1), three, &rem);
  ZKML_CHECK_MSG(rem.IsZero(), "r - 1 must be divisible by 3 for GLV");
  lambda_ = Fr::FromU64(5).Pow(exp_r);
  ZKML_CHECK(!(lambda_ == Fr::One()));
  ZKML_CHECK(lambda_ * lambda_ + lambda_ + Fr::One() == Fr::Zero());

  // beta: a cube root of unity in Fq (found by exponentiating the first
  // non-cube), disambiguated from its conjugate by matching the action on the
  // generator: phi(G) = (beta*x, y) must equal lambda*G.
  const U256 q = FqParams::Modulus();
  U256 q_minus_1;
  SubU256(q, one, &q_minus_1);
  const U256 exp_q = DivU512(Ext(q_minus_1), three, &rem);
  ZKML_CHECK_MSG(rem.IsZero(), "q - 1 must be divisible by 3 for GLV");
  Fq root = Fq::One();
  for (uint64_t a = 2; root == Fq::One(); ++a) {
    ZKML_CHECK_MSG(a < 64, "no Fq non-cube found");
    root = Fq::FromU64(a).Pow(exp_q);
  }
  // ScalarMul itself decomposes through this object, so the calibration
  // multiplies by the full scalar.
  const G1 lambda_g = internal::ScalarMulWindowed(G1::Generator(), lambda_);
  const G1Affine g = G1Affine::Generator();
  auto phi_matches = [&](const Fq& b) {
    return G1::FromAffine(G1Affine{b * g.x, g.y, /*infinity=*/false}) == lambda_g;
  };
  if (phi_matches(root)) {
    beta_ = root;
  } else {
    beta_ = root * root;
    ZKML_CHECK_MSG(phi_matches(beta_), "neither cube root acts as lambda");
  }

  // Short lattice basis for {(x, y) : x + y*lambda == 0 mod r} via the
  // extended Euclidean algorithm on (r, lambda). Each step maintains
  // s_i*r + t_i*lambda = r_i, so (r_i, -t_i) is a lattice vector; the first
  // remainder below sqrt(r) and one of its neighbours form a reduced basis
  // (Gallant–Lambert–Vanstone, via Guide to ECC Alg. 3.74).
  U256 r_prev = n;
  U256 r_cur = lambda_.ToCanonical();
  S256 t_prev{U256::Zero(), false};
  S256 t_cur{one, false};
  auto step = [&]() {
    U256 r_next;
    const U256 qt = DivU512(Ext(r_prev), r_cur, &r_next);
    S256 prod;
    prod.mag = Low256Checked(Mul256(qt, t_cur.mag));
    prod.neg = prod.mag.IsZero() ? false : t_cur.neg;
    const S256 t_next = Sub256(t_prev, prod);
    r_prev = r_cur;
    r_cur = r_next;
    t_prev = t_cur;
    t_cur = t_next;
  };
  while (Cmp512(Mul256(r_cur, r_cur), Ext(n)) >= 0) {
    step();
  }
  // r_cur is the first remainder < sqrt(r). v1 = (r_cur, -t_cur); v2 is the
  // shorter of the neighbouring vectors.
  const S256 a1{r_cur, false};
  const S256 b1 = Negate(t_cur);
  const S256 cand_a{r_prev, false};
  const S256 cand_b = Negate(t_prev);
  step();  // advance once more: (r_cur, t_cur) is now the (l+1)-th pair
  S256 a2 = cand_a;
  S256 b2 = cand_b;
  if (Cmp512(NormSq(S256{r_cur, false}, t_cur), NormSq(cand_a, cand_b)) < 0) {
    a2 = S256{r_cur, false};
    b2 = Negate(t_cur);
  }

  // Determinant a1*b2 - a2*b1 must be +/- r (consecutive EEA vectors span the
  // full lattice); its sign feeds the Babai coefficient signs.
  const S512 det = Sub(Mul(a1, b2), Mul(a2, b1));
  ZKML_CHECK_MSG(Cmp512(det.mag, Ext(n)) == 0, "GLV lattice determinant != r");

  a1_ = a1.mag;
  a1_neg_ = a1.neg;
  b1_ = b1.mag;
  b1_neg_ = b1.neg;
  a2_ = a2.mag;
  a2_neg_ = a2.neg;
  b2_ = b2.mag;
  b2_neg_ = b2.neg;

  // (k, 0) = beta1*v1 + beta2*v2 over the rationals with beta1 = b2*k/det and
  // beta2 = -b1*k/det; precompute 2^320-scaled |b2|/r and |b1|/r so Decompose
  // needs only multiplies and shifts.
  g1_ = DivU512(ShlLimbs(b2_, 5), n, nullptr);
  g2_ = DivU512(ShlLimbs(b1_, 5), n, nullptr);
  c1_neg_ = b2_neg_ != det.neg;
  c2_neg_ = !(b1_neg_ != det.neg);

  // Self-check: recomposition identity and magnitude bound on edge scalars.
  const Fr edge[] = {Fr::Zero(), Fr::One(), Fr::Zero() - Fr::One(), lambda_,
                     Fr::FromU64(0x123456789abcdefULL).Pow(U256::FromU64(11))};
  for (const Fr& k : edge) {
    const GlvDecomposed d = Decompose(k);
    ZKML_CHECK(SignedToFr(d.k1, d.k1_neg) + lambda_ * SignedToFr(d.k2, d.k2_neg) == k);
    ZKML_CHECK(d.k1.HighestBit() < kGlvBits && d.k2.HighestBit() < kGlvBits);
  }
}

const Glv& Glv::Get() {
  static const Glv glv;
  return glv;
}

GlvDecomposed Glv::Decompose(const Fr& k) const {
  const U256 kc = k.ToCanonical();
  const U256 c1m = RoundShift320(Mul256(kc, g1_));
  const U256 c2m = RoundShift320(Mul256(kc, g2_));
  const S256 c1{c1m, c1m.IsZero() ? false : c1_neg_};
  const S256 c2{c2m, c2m.IsZero() ? false : c2_neg_};
  // (k1, k2) = (k, 0) - c1*v1 - c2*v2.
  const S512 k1 =
      Sub(S512{Ext(kc), false}, Add(Mul(c1, S256{a1_, a1_neg_}), Mul(c2, S256{a2_, a2_neg_})));
  const S512 k2 = Negate(Add(Mul(c1, S256{b1_, b1_neg_}), Mul(c2, S256{b2_, b2_neg_})));
  GlvDecomposed out;
  out.k1 = Low256Checked(k1.mag);
  out.k1_neg = k1.neg;
  out.k2 = Low256Checked(k2.mag);
  out.k2_neg = k2.neg;
  ZKML_DCHECK(out.k1.HighestBit() < kGlvBits);
  ZKML_DCHECK(out.k2.HighestBit() < kGlvBits);
  return out;
}

}  // namespace zkml
