// BN254 G1 group arithmetic: y^2 = x^3 + 3 over Fq, prime order equal to the
// Fr modulus. Jacobian coordinates internally; affine points for storage,
// serialization and MSM bases.
#ifndef SRC_EC_G1_H_
#define SRC_EC_G1_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/ff/fields.h"

namespace zkml {

struct G1Affine {
  // Compressed encoding size: flag byte (0 infinity, 2/3 = y parity) then the
  // canonical x coordinate, little-endian. Every proof-byte size check and
  // reader/writer must use this constant, not a literal.
  static constexpr size_t kCompressedSize = 33;

  Fq x;
  Fq y;
  bool infinity = true;

  static G1Affine Identity() { return G1Affine{}; }
  static G1Affine Generator() {
    return G1Affine{Fq::FromU64(1), Fq::FromU64(2), /*infinity=*/false};
  }

  bool IsOnCurve() const;
  bool operator==(const G1Affine& o) const;

  std::array<uint8_t, kCompressedSize> Serialize() const;
  static bool Deserialize(const uint8_t* bytes, G1Affine* out);
};

class G1 {
 public:
  G1() = default;  // identity

  static G1 Identity() { return G1(); }
  static G1 Generator() { return FromAffine(G1Affine::Generator()); }
  static G1 FromAffine(const G1Affine& p);

  bool IsIdentity() const { return z_.IsZero(); }

  G1 Double() const;
  G1 operator+(const G1& o) const;
  G1 AddMixed(const G1Affine& o) const;
  G1 Neg() const;
  G1 operator-(const G1& o) const { return *this + o.Neg(); }
  G1& operator+=(const G1& o) { return *this = *this + o; }

  // s * P by GLV: s splits into two ~131-bit halves k1 + lambda*k2
  // (Glv::Decompose), and both run width-5 NAF digits through one shared
  // doubling chain, adding from the odd multiples of P and of
  // phi(P) = (beta*X, Y, Z).
  G1 ScalarMul(const Fr& s) const;

  G1Affine ToAffine() const;
  // Normalizes `n` Jacobian points to affine with one shared field inversion
  // (Montgomery's batch trick) instead of one inversion per point.
  static void BatchToAffine(const G1* in, size_t n, G1Affine* out);
  bool operator==(const G1& o) const;

 private:
  // Jacobian: (X/Z^2, Y/Z^3); identity iff Z == 0.
  Fq x_;
  Fq y_ = Fq::FromU64(1);
  Fq z_;  // zero-initialized => identity
};

// Below this point count a lone Msm() runs its Pippenger windows on the
// calling thread: pool dispatch overhead exceeds the per-window work.
constexpr size_t kMsmSerialThreshold = 1024;

// Multi-scalar multiplication sum_i scalars[i] * bases[i] using a parallel
// Pippenger bucket method with signed windows and batched-affine bucket
// accumulation. bases and scalars must have equal length.
G1 Msm(const std::vector<G1Affine>& bases, const std::vector<Fr>& scalars);

// Pointer form; lets callers commit to slices without copying into vectors.
G1 Msm(const G1Affine* bases, const Fr* scalars, size_t n);

// Precomputed fixed-base window table for MSMs against a basis that never
// changes (a commitment setup). For every base P_i and window w it stores
// 2^{c*w} * P_i in affine form, over the ceil((kGlvBits + 1) / c) windows
// that cover a GLV half-scalar; phi(2^{c*w} * P_i) = (beta * x, y) is formed
// while filling buckets, not stored. An MSM is then one signed-bucket pass
// over every (base, half, window) entry and one bucket aggregation: no
// per-window aggregation and no doublings between windows, which is what
// lets c grow (9 at 2^9 bases, against Msm()'s 7). Results equal Msm() on
// the same bases and scalars.
// Immutable once built, so concurrent Msm() calls are safe.
class FixedBaseTable {
 public:
  FixedBaseTable() = default;

  // Tables bases[0..n), splitting the doublings across the pool.
  static FixedBaseTable Build(const G1Affine* bases, size_t n);

  // sum_i scalars[i] * bases[i] over the first n <= size() bases, on the
  // calling thread.
  G1 Msm(const Fr* scalars, size_t n) const;

  size_t size() const { return identity_.size(); }

 private:
  int c_ = 0;
  int num_windows_ = 0;
  // Entry i * num_windows_ + w is 2^{c*w} * bases[i], coordinates split so
  // the bucket fill streams one base's windows from contiguous memory.
  std::vector<Fq> x_;
  std::vector<Fq> y_;
  std::vector<uint8_t> identity_;  // bases[i] is the identity; its entries are unused
};

namespace internal {

// Pippenger core with explicit window width c (4..15) and point-range chunk
// count; exposed so tests can cross-check the chunked-merge path directly.
G1 MsmImpl(const G1Affine* bases, const Fr* scalars, size_t n, int c, size_t num_chunks);

// s * P by a 4-bit fixed-window loop over the full canonical scalar, without
// the endomorphism. Glv's constructor needs it to calibrate beta against
// lambda*G before ScalarMul can decompose anything; tests use it as the
// reference for ScalarMul.
G1 ScalarMulWindowed(const G1& p, const Fr& s);

// How many times this process has built MulGenerator's table: 0 before the
// first call, 1 after.
size_t GeneratorTableBuilds();

}  // namespace internal

// [s_i]G for every scalar, in affine form, G the generator. Every product
// reads one process-wide fixed-base table of G: d * 2^{8w} * G for the signed
// 8-bit digits d in [1, 128] of the 32 windows that cover a scalar (4096
// points, ~300 KB), built once, in parallel, on first use. A product is then
// at most 32 mixed additions, against ScalarMul's ~130 doublings and ~45
// additions. The scalars split into ParallelForHeavy chunks that each
// normalize with one BatchToAffine. KZG's set-up derives its powers of tau
// and its Lagrange bases through this call.
std::vector<G1Affine> MulGenerator(const std::vector<Fr>& scalars);

// Transforms monomial-basis commitment bases G_i into Lagrange-basis bases
// for the radix-2 domain of size n = bases.size() (a power of two):
//   L_j = sum_i M_ij * G_i,  M_ij = (1/n) * omega^{-ij},
// i.e. the size-n inverse FFT applied to the points (M is symmetric, so the
// transpose the commitment identity needs is the inverse FFT itself). For any
// linear commitment, commit(coeffs, G) == commit(evals, L) — which is what
// lets the prover commit straight from evaluation form. One-time setup work:
// at n = 2^k it costs (k - 2) * n/2 + 1 twiddle scalar multiplications plus n
// scalings by 1/n; each FFT stage and the scaling pass split their elements
// into per-thread chunks (ParallelForHeavy) at every n. IPA's structureless
// Pedersen bases are its only user: KZG knows its bases as [tau^i]G and
// forms [L_j(tau)]G directly (KzgSetup::LagrangeBasis).
std::vector<G1Affine> LagrangeBasesFromMonomial(const std::vector<G1Affine>& bases);

// Deterministically derives `count` independent curve points ("nothing up my
// sleeve" bases for Pedersen/IPA commitments) by rejection-sampling x
// coordinates from a seeded PRNG. Discrete logs between the results are
// unknown to everyone, which is what IPA binding requires.
std::vector<G1Affine> DeriveGenerators(uint64_t seed, size_t count);

}  // namespace zkml

#endif  // SRC_EC_G1_H_
