#include "src/ec/g1.h"

#include <algorithm>
#include <atomic>

#include "src/base/check.h"
#include "src/base/kernel_stats.h"
#include "src/base/thread_pool.h"
#include "src/ec/glv.h"
#include "src/ff/batch_mul.h"

namespace zkml {
namespace {

const Fq& CurveB() {
  static const Fq b = Fq::FromU64(3);
  return b;
}

}  // namespace

bool G1Affine::IsOnCurve() const {
  if (infinity) {
    return true;
  }
  return y * y == x * x * x + CurveB();
}

bool G1Affine::operator==(const G1Affine& o) const {
  if (infinity || o.infinity) {
    return infinity == o.infinity;
  }
  return x == o.x && y == o.y;
}

std::array<uint8_t, G1Affine::kCompressedSize> G1Affine::Serialize() const {
  std::array<uint8_t, kCompressedSize> out{};
  if (infinity) {
    return out;
  }
  const U256 xc = x.ToCanonical();
  const U256 yc = y.ToCanonical();
  out[0] = static_cast<uint8_t>(2 + (yc.limbs[0] & 1));
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[1 + i * 8 + b] = static_cast<uint8_t>(xc.limbs[i] >> (8 * b));
    }
  }
  return out;
}

bool G1Affine::Deserialize(const uint8_t* bytes, G1Affine* out) {
  if (bytes[0] == 0) {
    // Canonical identity encoding: the 32 padding bytes must be zero, or the
    // encoding would be malleable (flippable bits the verifier never reads).
    for (size_t i = 1; i < kCompressedSize; ++i) {
      if (bytes[i] != 0) {
        return false;
      }
    }
    *out = Identity();
    return true;
  }
  if (bytes[0] != 2 && bytes[0] != 3) {
    return false;
  }
  U256 xc;
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = 0;
    for (int b = 0; b < 8; ++b) {
      limb |= static_cast<uint64_t>(bytes[1 + i * 8 + b]) << (8 * b);
    }
    xc.limbs[i] = limb;
  }
  if (CmpU256(xc, FqParams::Modulus()) >= 0) {
    return false;
  }
  const Fq x = Fq::FromCanonical(xc);
  Fq y;
  if (!FqSqrt(x * x * x + CurveB(), &y)) {
    return false;
  }
  const uint8_t want_parity = bytes[0] & 1;
  if ((y.ToCanonical().limbs[0] & 1) != want_parity) {
    y = y.Neg();
  }
  *out = G1Affine{x, y, /*infinity=*/false};
  return true;
}

G1 G1::FromAffine(const G1Affine& p) {
  G1 r;
  if (p.infinity) {
    return r;
  }
  r.x_ = p.x;
  r.y_ = p.y;
  r.z_ = Fq::FromU64(1);
  return r;
}

G1 G1::Double() const {
  if (IsIdentity()) {
    return *this;
  }
  // dbl-2009-l
  const Fq a = x_.Square();
  const Fq b = y_.Square();
  const Fq c = b.Square();
  Fq d = (x_ + b).Square() - a - c;
  d = d.Double();
  const Fq e = a + a + a;
  const Fq f = e.Square();
  G1 r;
  r.x_ = f - d.Double();
  r.y_ = e * (d - r.x_) - c.Double().Double().Double();
  r.z_ = (y_ * z_).Double();
  return r;
}

G1 G1::operator+(const G1& o) const {
  if (IsIdentity()) {
    return o;
  }
  if (o.IsIdentity()) {
    return *this;
  }
  // add-2007-bl
  const Fq z1z1 = z_.Square();
  const Fq z2z2 = o.z_.Square();
  const Fq u1 = x_ * z2z2;
  const Fq u2 = o.x_ * z1z1;
  const Fq s1 = y_ * o.z_ * z2z2;
  const Fq s2 = o.y_ * z_ * z1z1;
  if (u1 == u2) {
    if (s1 == s2) {
      return Double();
    }
    return Identity();
  }
  const Fq h = u2 - u1;
  const Fq i = h.Double().Square();
  const Fq j = h * i;
  const Fq r2 = (s2 - s1).Double();
  const Fq v = u1 * i;
  G1 r;
  r.x_ = r2.Square() - j - v.Double();
  r.y_ = r2 * (v - r.x_) - (s1 * j).Double();
  r.z_ = ((z_ + o.z_).Square() - z1z1 - z2z2) * h;
  return r;
}

G1 G1::AddMixed(const G1Affine& o) const {
  if (o.infinity) {
    return *this;
  }
  if (IsIdentity()) {
    return FromAffine(o);
  }
  // madd-2007-bl
  const Fq z1z1 = z_.Square();
  const Fq u2 = o.x * z1z1;
  const Fq s2 = o.y * z_ * z1z1;
  if (x_ == u2) {
    if (y_ == s2) {
      return Double();
    }
    return Identity();
  }
  const Fq h = u2 - x_;
  const Fq hh = h.Square();
  const Fq i = hh.Double().Double();
  const Fq j = h * i;
  const Fq r2 = (s2 - y_).Double();
  const Fq v = x_ * i;
  G1 r;
  r.x_ = r2.Square() - j - v.Double();
  r.y_ = r2 * (v - r.x_) - (y_ * j).Double();
  r.z_ = (z_ + h).Square() - z1z1 - hh;
  return r;
}

G1 G1::Neg() const {
  G1 r = *this;
  r.y_ = r.y_.Neg();
  return r;
}

namespace {

// Width-5 NAF: every nonzero digit is odd with |d| < 2^4, and nonzero digits
// sit at least 5 positions apart, so a ~131-bit GLV half costs ~22 additions
// from a table of the 8 odd multiples P, 3P, ..., 15P.
constexpr int kNafWidth = 5;
// A b-bit value has at most b + 1 NAF digits.
constexpr int kMaxNafDigits = Glv::kGlvBits + 1;

// Writes the width-5 NAF of k (sum_i naf[i] * 2^i == k) and returns its
// length.
int WindowedNaf(U256 k, int8_t* naf) {
  int len = 0;
  while (!k.IsZero()) {
    ZKML_DCHECK(len < kMaxNafDigits);
    int d = 0;
    if (k.IsOdd()) {
      d = static_cast<int>(k.limbs[0] & ((1u << kNafWidth) - 1));
      if (d >= (1 << (kNafWidth - 1))) {
        d -= 1 << kNafWidth;
        AddU256(k, U256::FromU64(static_cast<uint64_t>(-d)), &k);
      } else {
        SubU256(k, U256::FromU64(static_cast<uint64_t>(d)), &k);
      }
    }
    naf[len++] = static_cast<int8_t>(d);
    k = ShrU256(k, 1);
  }
  return len;
}

}  // namespace

G1 G1::ScalarMul(const Fr& s) const {
  if (IsIdentity() || s.IsZero()) {
    return Identity();
  }
  const Glv& glv = Glv::Get();
  const GlvDecomposed d = glv.Decompose(s);
  // table[0][i] = (2i+1) * P; table[1][i] = phi((2i+1) * P), which is the
  // same Jacobian point with X scaled by beta (x = X/Z^2).
  constexpr int kTableSize = 1 << (kNafWidth - 2);
  G1 table[2][kTableSize];
  table[0][0] = *this;
  const G1 twice = Double();
  for (int i = 1; i < kTableSize; ++i) {
    table[0][i] = table[0][i - 1] + twice;
  }
  for (int i = 0; i < kTableSize; ++i) {
    table[1][i] = table[0][i];
    table[1][i].x_ = glv.beta() * table[0][i].x_;
  }
  int8_t naf[2][kMaxNafDigits];
  const int len[2] = {WindowedNaf(d.k1, naf[0]), WindowedNaf(d.k2, naf[1])};
  const bool neg[2] = {d.k1_neg, d.k2_neg};
  G1 acc;
  for (int i = std::max(len[0], len[1]) - 1; i >= 0; --i) {
    acc = acc.Double();
    for (int h = 0; h < 2; ++h) {
      if (i >= len[h] || naf[h][i] == 0) {
        continue;
      }
      const int digit = naf[h][i];
      const G1& p = table[h][(digit < 0 ? -digit : digit) >> 1];
      acc += (digit < 0) != neg[h] ? p.Neg() : p;
    }
  }
  return acc;
}

G1Affine G1::ToAffine() const {
  if (IsIdentity()) {
    return G1Affine::Identity();
  }
  const Fq zinv = z_.Inverse();
  const Fq zinv2 = zinv.Square();
  return G1Affine{x_ * zinv2, y_ * zinv2 * zinv, /*infinity=*/false};
}

void G1::BatchToAffine(const G1* in, size_t n, G1Affine* out) {
  std::vector<Fq> zs;
  zs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!in[i].IsIdentity()) {
      zs.push_back(in[i].z_);
    }
  }
  std::vector<Fq> scratch;
  BatchInverseNonZero(zs.data(), zs.size(), scratch);
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (in[i].IsIdentity()) {
      out[i] = G1Affine::Identity();
      continue;
    }
    const Fq zinv = zs[j++];
    const Fq zinv2 = zinv.Square();
    out[i] = G1Affine{in[i].x_ * zinv2, in[i].y_ * zinv2 * zinv, /*infinity=*/false};
  }
}

bool G1::operator==(const G1& o) const {
  if (IsIdentity() || o.IsIdentity()) {
    return IsIdentity() == o.IsIdentity();
  }
  // Cross-multiply to compare projective representatives.
  const Fq z1z1 = z_.Square();
  const Fq z2z2 = o.z_.Square();
  if (!(x_ * z2z2 == o.x_ * z1z1)) {
    return false;
  }
  return y_ * z2z2 * o.z_ == o.y_ * z1z1 * z_;
}

namespace {

// GLV splits every 254-bit scalar into two halves below 2^kGlvBits; one
// extra bit absorbs the signed-digit carry, so windows cover kGlvBits + 1
// bits over twice the point count.
int NumWindows(int c) { return (Glv::kGlvBits + 1 + c - 1) / c; }

// Picks the signed-window width minimizing the Pippenger cost model:
// NumWindows(c) windows, each costing ~2n batched-affine adds (≈6 field muls
// amortized, over the GLV-doubled point set) plus 2^{c-1} bucket-aggregation
// Jacobian adds (≈26 muls).
int ChooseWindowBits(size_t n) {
  int best_c = 4;
  double best_cost = 0;
  for (int c = 4; c <= 15; ++c) {
    const double cost =
        static_cast<double>(NumWindows(c)) *
        (static_cast<double>(2 * n) * 6.0 + static_cast<double>(1ULL << (c - 1)) * 26.0);
    if (c == 4 || cost < best_cost) {
      best_c = c;
      best_cost = cost;
    }
  }
  return best_c;
}

// Signed-digit decomposition: digit w of e lies in [-2^{c-1}, 2^{c-1}] and
// sum_w out[w * stride] * 2^{cw} == e. Halves the bucket count because -d*P
// is just d*(-P) and negating an affine point is free.
void SignedDigits(const U256& e, int c, int num_windows, int16_t* out, size_t stride) {
  const uint64_t mask = (1ULL << c) - 1;
  const uint64_t half = 1ULL << (c - 1);
  uint64_t carry = 0;
  for (int w = 0; w < num_windows; ++w) {
    const int bit0 = w * c;
    const int limb = bit0 / 64;
    uint64_t raw = 0;
    if (limb < 4) {
      const int off = bit0 % 64;
      raw = e.limbs[limb] >> off;
      if (off + c > 64 && limb + 1 < 4) {
        raw |= e.limbs[limb + 1] << (64 - off);
      }
      raw &= mask;
    }
    raw += carry;
    if (raw > half) {
      out[w * stride] = static_cast<int16_t>(static_cast<int64_t>(raw) - (1LL << c));
      carry = 1;
    } else {
      out[w * stride] = static_cast<int16_t>(raw);
      carry = 0;
    }
  }
  // The top window cannot carry out: callers cover at least one bit more than
  // e has (kGlvBits + 1 for a GLV half, 256 for MulGenerator's canonical
  // scalars), so the final raw value is at most 2^{c-1}.
}

// Reusable structure-of-arrays scratch for ReduceBucketChains: one slot per
// regular (non-degenerate) pair of the current round. Splitting the affine
// add into per-coordinate arrays lets every multiplication stage run through
// the SIMD batch kernel instead of one scalar Montgomery mul at a time.
struct AffineAddScratch {
  std::vector<Fq> den;   // dx (or 2y for doublings); inverted, then becomes
                         // lambda*(p.x - x3) after the final mul
  std::vector<Fq> num;   // dy (or 3x^2); becomes lambda after the first mul
  std::vector<Fq> lam2;  // lambda^2, then x3
  std::vector<uint32_t> src;  // slot of p (q is src + 1) per regular pair
  std::vector<uint32_t> out;  // result slot per regular pair
  // Pass-through of a half-dead pair's live point. Captured by value and
  // applied after the scatter: its destination slot off + t/2 can alias an
  // EARLIER regular pair's source slot (t/2 < t), which the batch stages
  // still read after the walk — so the write must not happen in place.
  struct DeferredCopy {
    uint32_t dst;
    Fq x;
    Fq y;
  };
  std::vector<DeferredCopy> copies;
  std::vector<Fq> inv_save;
  std::vector<Fq> inv_scratch;

  // Grows the pair arrays to at least `pairs` slots, monotonically: existing
  // contents are garbage between rounds anyway, and never shrinking means a
  // reused scratch pays vector growth (and its page faults) only once.
  void Ensure(size_t pairs) {
    if (den.size() < pairs) {
      den.resize(pairs);
      num.resize(pairs);
      lam2.resize(pairs);
      src.resize(pairs);
      out.resize(pairs);
    }
  }
};

// Chain points in coordinate-split form. alive[i] == 0 marks an identity
// slot (a pair that cancelled); live slots hold affine (x, y). SoA keeps
// every stage of the reduction streaming over contiguous 32-byte lanes
// instead of strided 72-byte point structs.
struct SoAPoints {
  std::vector<Fq> x;
  std::vector<Fq> y;
  std::vector<uint8_t> alive;

  // x/y grow monotonically and are left uninitialized-by-contract (the
  // bucket fill writes every slot below `n`); only alive is reset.
  void Resize(size_t n) {
    if (x.size() < n) {
      x.resize(n);
      y.resize(n);
    }
    alive.assign(n, 1);
  }
};

// Resolves every bucket chain to a single point by pairwise-reduction rounds.
// pts is grouped by bucket: chain b occupies [start[b], start[b] + cnt[b]).
// Each round batches all of its additions behind one Montgomery batch
// inversion, making an affine add ~6 field muls instead of the ~11 of a
// Jacobian mixed add — and every multiplication stage (the inversion tree,
// lambda, lambda^2, lambda*(px - x3)) runs as SIMD BatchMuls over all pairs
// in the round. Rounds are logarithmic in the longest chain even in the
// adversarial all-points-one-bucket case.
//
// Each round walks the chains once, classifying every pair: regular adds
// (including doublings — same lambda = num/den shape) append their operands
// to the scratch arrays plus their destination slot off + t/2. Degenerate
// pairs (an identity operand, or q == -p) resolve immediately during the
// walk — writing dst right away is safe because dst = off + t/2 sits
// strictly below every not-yet-visited source slot off + t' (t' >= t) of
// the chain. Regular results come back from the batched stages and a flat
// scatter writes each to its recorded slot; the scatter can't clobber an
// unread operand either (regular operands were copied into scratch during
// the walk). Odd-tail moves happen after the scatter for the same reason.
void ReduceBucketChains(SoAPoints& pts, const std::vector<uint32_t>& start,
                        std::vector<uint32_t>& cnt, size_t b_lo, size_t b_hi,
                        AffineAddScratch& s) {
  Fq* xs = pts.x.data();
  Fq* ys = pts.y.data();
  uint8_t* alive = pts.alive.data();
  for (;;) {
    bool active = false;
    size_t m = 0;  // regular pairs collected this round
    s.copies.clear();
    for (size_t b = b_lo; b < b_hi; ++b) {
      const uint32_t chain = cnt[b];
      if (chain < 2) {
        continue;
      }
      active = true;
      const uint32_t off = start[b];
      for (uint32_t t = 0; t + 1 < chain; t += 2) {
        const uint32_t i = off + t;
        const uint32_t j = i + 1;
        const uint32_t dst = off + t / 2;
        if (!alive[i] || !alive[j]) {
          const uint32_t src = alive[j] ? j : i;
          if (alive[src]) {
            s.copies.push_back({dst, xs[src], ys[src]});
          } else {
            alive[dst] = 0;
          }
          continue;
        }
        const Fq dx = xs[j] - xs[i];
        if (!dx.IsZero()) {
          s.den[m] = dx;
          s.num[m] = ys[j] - ys[i];
        } else if (ys[i] == ys[j] && !ys[i].IsZero()) {
          s.den[m] = ys[i].Double();
          const Fq xx = xs[i].Square();
          s.num[m] = xx + xx + xx;
        } else {
          // q == -p (or an order-2 point): the sum is the identity.
          alive[dst] = 0;
          continue;
        }
        s.src[m] = i;
        s.out[m] = dst;
        ++m;
      }
    }
    if (!active) {
      return;
    }
    BatchInverseFlatNonZero(s.den.data(), m, s.inv_save, s.inv_scratch);
    BatchMul(s.num.data(), s.num.data(), s.den.data(), m);  // lambda
    BatchSquare(s.lam2.data(), s.num.data(), m);
    // p and q's coordinates are still in place (no slot below a pair's
    // sources has been written since classification), so read them from
    // xs/ys instead of carrying 3 more arrays through the round.
    for (size_t k = 0; k < m; ++k) {
      const uint32_t i = s.src[k];
      const Fq x3 = s.lam2[k] - xs[i] - xs[i + 1];
      s.den[k] = xs[i] - x3;
      s.lam2[k] = x3;
    }
    BatchMul(s.den.data(), s.den.data(), s.num.data(), m);  // lambda*(px - x3)
    // Scatter runs in classification order, so a pair's result lands at
    // off + t/2 <= its own source slots and strictly below every later
    // pair's sources: ys[src] is always read before anything clobbers it.
    for (size_t k = 0; k < m; ++k) {
      const uint32_t dst = s.out[k];
      const Fq y3 = s.den[k] - ys[s.src[k]];
      xs[dst] = s.lam2[k];
      ys[dst] = y3;
      alive[dst] = 1;
    }
    for (const AffineAddScratch::DeferredCopy& cp : s.copies) {
      xs[cp.dst] = cp.x;
      ys[cp.dst] = cp.y;
      alive[cp.dst] = 1;
    }
    for (size_t b = b_lo; b < b_hi; ++b) {
      const uint32_t chain = cnt[b];
      if (chain < 2) {
        continue;
      }
      if (chain & 1) {
        const uint32_t dst = start[b] + chain / 2;
        const uint32_t src = start[b] + chain - 1;
        xs[dst] = xs[src];
        ys[dst] = ys[src];
        alive[dst] = alive[src];
      }
      cnt[b] = (chain + 1) / 2;
    }
  }
}

// Per-thread bucket-pass scratch, shared by the Pippenger windows and the
// fixed-base table passes so that a thread keeps one set, sized by the
// largest pass it has run. Reused across passes and MSMs: the arrays total
// tens of MB at 2^16 points, and reallocating them per window costs a fresh
// round of page faults each time.
struct BucketScratch {
  SoAPoints pts;
  AffineAddScratch add;
  std::vector<uint32_t> cnt, start, fill;

  // Counts the nonzero digits of `digits` into 2^{c-1} buckets by |d| - 1.
  // Call with cnt already sized; adds onto it.
  void Count(const int16_t* digits, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const int d = digits[i];
      if (d != 0) {
        ++cnt[static_cast<size_t>(d < 0 ? -d : d) - 1];
      }
    }
  }

  // Lays the buckets' chains out back to back from the counts; returns the
  // total point count and leaves fill[b] at the first slot of chain b.
  uint32_t Layout() {
    start.resize(cnt.size());
    uint32_t total = 0;
    for (size_t b = 0; b < cnt.size(); ++b) {
      start[b] = total;
      total += cnt[b];
    }
    pts.Resize(total);
    fill.assign(start.begin(), start.end());
    add.Ensure(total / 2 + 1);
    return total;
  }
};

BucketScratch& ThreadBucketScratch() {
  static thread_local BucketScratch s;
  return s;
}

// GLV-extended base coordinates in SoA form: index i < n is bases[i], index
// n + i is phi(bases[i]) = (beta * x_i, y_i). Splitting x and y into flat
// 32-byte-element arrays means every random read in the bucket fill touches
// exactly one cache line per coordinate — the 72-byte AoS points straddle
// two or three.
struct ExtBases {
  const Fq* x;  // 2n entries
  const Fq* y;  // 2n entries

  const Fq& X(size_t i) const { return x[i]; }
  const Fq& Y(size_t i) const { return y[i]; }
};

// Accumulates points [lo, hi) of window w into 2^{c-1} signed buckets with
// batched-affine addition, then returns the weighted bucket sum
// sum_b (b+1) * B_b via the usual suffix running sums. wdigits is the
// window's digit row, indexed by point.
G1 AccumulateWindowChunk(const ExtBases& ext, const int16_t* wdigits, size_t lo, size_t hi,
                         int c) {
  BucketScratch& bs = ThreadBucketScratch();
  SoAPoints& pts = bs.pts;
  AffineAddScratch& scratch = bs.add;
  std::vector<uint32_t>& cnt = bs.cnt;
  const std::vector<uint32_t>& start = bs.start;
  std::vector<uint32_t>& fill = bs.fill;

  const size_t nb = static_cast<size_t>(1) << (c - 1);
  cnt.assign(nb, 0);
  bs.Count(wdigits + lo, hi - lo);
  const uint32_t total = bs.Layout();

  // Process buckets in power-of-two blocks of ~8k points, and run fill +
  // reduction + aggregation per block before touching the next: the block's
  // ~512KB of coordinates stay L2-resident across all of its log(chain)
  // reduction rounds and its aggregation reads, instead of every stage
  // streaming the full multi-MB arrays. A radix prepass scatters each
  // point's 4-byte index into its block's slice of `idx` (that scatter stays
  // inside one L2-sized array), so the per-block fill — the expensive 64-byte
  // coordinate scatter — lands in a cache-resident region. Early rounds of a
  // block still batch thousands of pairs, so the SIMD inversion tree and
  // batch muls keep their depth. Blocks run in descending bucket order so
  // the weighted-sum suffix accumulators thread straight through.
  constexpr uint32_t kReduceBlockPoints = 8192;
  G1 running;
  G1 acc;
  if (total <= kReduceBlockPoints) {
    for (size_t i = lo; i < hi; ++i) {
      const int d = wdigits[i];
      if (d == 0) {
        continue;
      }
      const size_t b = static_cast<size_t>(d < 0 ? -d : d) - 1;
      const uint32_t slot = fill[b]++;
      pts.x[slot] = ext.X(i);
      pts.y[slot] = d < 0 ? ext.Y(i).Neg() : ext.Y(i);
    }
    ReduceBucketChains(pts, start, cnt, 0, nb, scratch);
    for (size_t b = nb; b-- > 0;) {
      if (cnt[b] > 0 && pts.alive[start[b]]) {
        running = running.AddMixed(G1Affine{pts.x[start[b]], pts.y[start[b]], /*infinity=*/false});
      }
      acc += running;
    }
    return acc;
  }

  // Buckets per block: the largest power of two keeping a block near the
  // point target (bucket occupancy is near-uniform for random scalars).
  uint32_t bpb = 1;
  while (bpb < nb &&
         static_cast<uint64_t>(bpb) * 2 * total / nb <= kReduceBlockPoints) {
    bpb <<= 1;
  }
  uint32_t shift = 0;
  while ((static_cast<uint32_t>(1) << shift) != bpb) {
    ++shift;
  }
  const size_t nblk = nb / bpb;

  static thread_local std::vector<uint32_t> idx, blk_fill;
  idx.resize(total);
  blk_fill.resize(nblk);
  for (size_t blk = 0; blk < nblk; ++blk) {
    blk_fill[blk] = start[blk * bpb];
  }
  for (size_t i = lo; i < hi; ++i) {
    const int d = wdigits[i];
    if (d == 0) {
      continue;
    }
    const size_t b = static_cast<size_t>(d < 0 ? -d : d) - 1;
    idx[blk_fill[b >> shift]++] = static_cast<uint32_t>(i);
  }

  for (size_t blk = nblk; blk-- > 0;) {
    const uint32_t b_lo = static_cast<uint32_t>(blk * bpb);
    const uint32_t b_hi = static_cast<uint32_t>(b_lo + bpb);
    const uint32_t k_lo = start[b_lo];
    const uint32_t k_hi = blk_fill[blk];
    constexpr uint32_t kFillPrefetch = 12;
    for (uint32_t k = k_lo; k < k_hi; ++k) {
      if (k + kFillPrefetch < k_hi) {
        const uint32_t pi = idx[k + kFillPrefetch];
        __builtin_prefetch(&ext.x[pi]);
        __builtin_prefetch(&ext.y[pi]);
      }
      const uint32_t i = idx[k];
      const int d = wdigits[i];
      const size_t b = static_cast<size_t>(d < 0 ? -d : d) - 1;
      const uint32_t slot = fill[b]++;
      pts.x[slot] = ext.X(i);
      pts.y[slot] = d < 0 ? ext.Y(i).Neg() : ext.Y(i);
    }
    ReduceBucketChains(pts, start, cnt, b_lo, b_hi, scratch);
    for (size_t b = b_hi; b-- > b_lo;) {
      if (cnt[b] > 0 && pts.alive[start[b]]) {
        running = running.AddMixed(G1Affine{pts.x[start[b]], pts.y[start[b]], /*infinity=*/false});
      }
      acc += running;
    }
  }
  return acc;
}

// Table entries a fixed-base pass gathers into its buckets at a time. Each
// sub-range reduces its chains to one point per bucket and carries those
// into the next sub-range as chain heads, so per-thread scratch stays near
// kTableRangePoints + 2^{c-1} points whatever the table size, at the price of
// one more batched-affine add per bucket per sub-range.
constexpr size_t kTableRangePoints = 2048;

// Picks the table's window width by the same per-operation prices as
// ChooseWindowBits, for one pass over the 2n * NumWindows(c) entries of
// full-width scalars: ~6 muls per batched-affine add (the entries plus each
// later sub-range's carried bucket heads) and ~26 per bucket for the single
// aggregation. No per-window term remains, so c lands at 9 for 2^9 bases,
// against Msm()'s 7.
int ChooseTableWindowBits(size_t n) {
  int best_c = 4;
  double best_cost = 0;
  for (int c = 4; c <= 15; ++c) {
    const size_t entries = 2 * n * static_cast<size_t>(NumWindows(c));
    const size_t ranges =
        std::max<size_t>(1, (entries + kTableRangePoints - 1) / kTableRangePoints);
    const double buckets = static_cast<double>(1ULL << (c - 1));
    const double adds = static_cast<double>(entries) + static_cast<double>(ranges - 1) * buckets;
    const double cost = adds * 6.0 + buckets * 26.0;
    if (c == 4 || cost < best_cost) {
      best_c = c;
      best_cost = cost;
    }
  }
  return best_c;
}

}  // namespace

namespace internal {

G1 ScalarMulWindowed(const G1& p, const Fr& s) {
  const U256 e = s.ToCanonical();
  const int hb = e.HighestBit();
  if (hb < 0 || p.IsIdentity()) {
    return G1::Identity();
  }
  // Fixed 4-bit windows: one table add per 4 doublings instead of one
  // conditional add per bit. 64 divides evenly into 4-bit windows, so digits
  // never straddle a limb boundary.
  constexpr int kWindow = 4;
  constexpr int kTableSize = (1 << kWindow) - 1;
  G1 table[kTableSize];  // table[i] = (i+1) * P
  table[0] = p;
  for (int i = 1; i < kTableSize; ++i) {
    table[i] = table[i - 1] + p;
  }
  G1 acc;
  for (int w = hb / kWindow; w >= 0; --w) {
    for (int d = 0; d < kWindow; ++d) {
      acc = acc.Double();
    }
    const int bit0 = w * kWindow;
    const uint64_t digit = (e.limbs[bit0 / 64] >> (bit0 % 64)) & (kTableSize);
    if (digit != 0) {
      acc += table[digit - 1];
    }
  }
  return acc;
}

G1 MsmImpl(const G1Affine* bases, const Fr* scalars, size_t n, int c, size_t num_chunks) {
  const Glv& glv = Glv::Get();
  const int num_windows = NumWindows(c);
  const size_t m = 2 * n;  // GLV-extended point count: [P_i | phi(P_i)]

  // phi(P) = (beta*x, y): transpose the bases to SoA and materialize the
  // endomorphism x coordinates with one batched field multiplication (the
  // second y half is a plain copy).
  std::vector<Fq> ext_x(m);
  std::vector<Fq> ext_y(m);
  for (size_t i = 0; i < n; ++i) {
    ext_x[i] = bases[i].x;
    ext_y[i] = bases[i].y;
  }
  BatchMulScalar(ext_x.data() + n, ext_x.data(), glv.beta(), n);
  std::copy(ext_y.begin(), ext_y.begin() + n, ext_y.begin() + n);
  const ExtBases ext{ext_x.data(), ext_y.data()};

  // Digit matrix, window-major so each window task streams a contiguous row.
  // Column i holds k1 digits of scalar i, column n+i its k2 digits; negative
  // halves fold into digit negation (a signed digit just negates the point).
  // Infinity points get all-zero columns so the bucket passes never need to
  // touch the point array to skip them.
  std::vector<int16_t> digits(static_cast<size_t>(num_windows) * m);
  ParallelFor(0, n, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (bases[i].infinity) {
        for (int w = 0; w < num_windows; ++w) {
          digits[w * m + i] = 0;
          digits[w * m + n + i] = 0;
        }
        continue;
      }
      const GlvDecomposed d = glv.Decompose(scalars[i]);
      SignedDigits(d.k1, c, num_windows, &digits[i], m);
      SignedDigits(d.k2, c, num_windows, &digits[n + i], m);
      if (d.k1_neg) {
        for (int w = 0; w < num_windows; ++w) {
          digits[w * m + i] = static_cast<int16_t>(-digits[w * m + i]);
        }
      }
      if (d.k2_neg) {
        for (int w = 0; w < num_windows; ++w) {
          digits[w * m + n + i] = static_cast<int16_t>(-digits[w * m + n + i]);
        }
      }
    }
  });

  num_chunks = std::max<size_t>(1, std::min(num_chunks, m));
  const size_t chunk = (m + num_chunks - 1) / num_chunks;
  std::vector<G1> partial(static_cast<size_t>(num_windows) * num_chunks);
  auto run_cell = [&](int w, size_t k) {
    const size_t lo = k * chunk;
    const size_t hi = std::min(m, lo + chunk);
    if (lo < hi) {
      partial[w * num_chunks + k] =
          AccumulateWindowChunk(ext, &digits[static_cast<size_t>(w) * m], lo, hi, c);
    }
  };
  if (num_chunks == 1 &&
      (n < kMsmSerialThreshold || ThreadPool::Global().num_threads() <= 1)) {
    // Small problem: the pool's submit/steal overhead exceeds the work (this
    // is what made 256-point MSMs slower than 512-point ones). A one-worker
    // pool stays serial at every size — the pool would only add a second
    // executor (the helping caller) timesharing the same core, evicting the
    // L2-resident bucket blocks on every switch.
    for (int w = 0; w < num_windows; ++w) {
      run_cell(w, 0);
    }
  } else {
    TaskGroup group;
    for (int w = 0; w < num_windows; ++w) {
      for (size_t k = 0; k < num_chunks; ++k) {
        group.Submit([&run_cell, w, k] { run_cell(w, k); });
      }
    }
  }

  G1 total;
  for (int w = num_windows - 1; w >= 0; --w) {
    for (int d = 0; d < c; ++d) {
      total = total.Double();
    }
    for (size_t k = 0; k < num_chunks; ++k) {
      total += partial[w * num_chunks + k];
    }
  }
  return total;
}

}  // namespace internal

G1 Msm(const G1Affine* bases, const Fr* scalars, size_t n) {
  kernelstats::RecordMsm(n);
  if (n == 0) {
    return G1::Identity();
  }
  if (n < 32) {
    G1 acc;
    for (size_t i = 0; i < n; ++i) {
      acc += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
    }
    return acc;
  }
  const int c = ChooseWindowBits(n);
  const int num_windows = NumWindows(c);
  // Window tasks are the first parallelism axis; when the pool is wider than
  // the window count, split the point range into per-thread chunks whose
  // bucket sums merge at the end (window sums are linear in the points).
  const size_t threads = ThreadPool::Global().num_threads();
  size_t num_chunks = 1;
  if (threads > static_cast<size_t>(num_windows)) {
    num_chunks = std::min((threads + num_windows - 1) / static_cast<size_t>(num_windows),
                          std::max<size_t>(1, n / 2048));
  }
  return internal::MsmImpl(bases, scalars, n, c, num_chunks);
}

G1 Msm(const std::vector<G1Affine>& bases, const std::vector<Fr>& scalars) {
  ZKML_CHECK(bases.size() == scalars.size());
  return Msm(bases.data(), scalars.data(), bases.size());
}

FixedBaseTable FixedBaseTable::Build(const G1Affine* bases, size_t n) {
  FixedBaseTable t;
  t.c_ = ChooseTableWindowBits(n);
  t.num_windows_ = NumWindows(t.c_);
  const size_t windows = static_cast<size_t>(t.num_windows_);
  t.x_.resize(n * windows);
  t.y_.resize(n * windows);
  t.identity_.resize(n);
  // (windows - 1) * c doublings per base, 126 at c = 9: heavy enough to
  // split at every size. Each block of kBlockBases bases normalizes its
  // points with one shared inversion, so the Jacobian staging stays small.
  constexpr size_t kBlockBases = 8;
  ParallelForHeavy(0, n, [&](size_t lo, size_t hi) {
    std::vector<G1> jac(kBlockBases * windows);
    std::vector<G1Affine> affine(jac.size());
    for (size_t b0 = lo; b0 < hi; b0 += kBlockBases) {
      const size_t b1 = std::min(hi, b0 + kBlockBases);
      for (size_t i = b0; i < b1; ++i) {
        t.identity_[i] = bases[i].infinity ? 1 : 0;
        G1 p = G1::FromAffine(bases[i]);
        for (size_t w = 0; w < windows; ++w) {
          if (w != 0) {
            for (int d = 0; d < t.c_; ++d) {
              p = p.Double();
            }
          }
          jac[(i - b0) * windows + w] = p;
        }
      }
      const size_t count = (b1 - b0) * windows;
      G1::BatchToAffine(jac.data(), count, affine.data());
      for (size_t k = 0; k < count; ++k) {
        t.x_[b0 * windows + k] = affine[k].x;
        t.y_[b0 * windows + k] = affine[k].y;
      }
    }
  });
  return t;
}

G1 FixedBaseTable::Msm(const Fr* scalars, size_t n) const {
  ZKML_CHECK_MSG(n <= size(), "MSM longer than its fixed-base table");
  kernelstats::RecordMsm(n);
  if (n == 0) {
    return G1::Identity();
  }
  const Glv& glv = Glv::Get();
  const size_t windows = static_cast<size_t>(num_windows_);
  const size_t row_len = 2 * windows;
  const size_t nb = static_cast<size_t>(1) << (c_ - 1);

  BucketScratch& bs = ThreadBucketScratch();
  SoAPoints& pts = bs.pts;
  // carry: one value per bucket, carried from sub-range to sub-range.
  static thread_local SoAPoints carry;
  static thread_local std::vector<int16_t> digits;
  static thread_local std::vector<uint32_t> nonzero;
  // The chain slots of k2-half entries, whose x is multiplied by beta in
  // SIMD batches of kPhiBatch once that many are filled.
  constexpr size_t kPhiBatch = 64;
  std::array<uint32_t, kPhiBatch> phi_slots;
  std::array<Fq, kPhiBatch> phi_x;
  size_t num_phi = 0;
  const auto apply_beta = [&] {
    for (size_t j = 0; j < num_phi; ++j) {
      phi_x[j] = pts.x[phi_slots[j]];
    }
    BatchMulScalar(phi_x.data(), phi_x.data(), glv.beta(), num_phi);
    for (size_t j = 0; j < num_phi; ++j) {
      pts.x[phi_slots[j]] = phi_x[j];
    }
    num_phi = 0;
  };

  // Row i holds base i's k1 digits then its k2 digits; a negative half
  // negates its digits (a signed digit just negates the point). Identity
  // bases get all-zero rows. nonzero[i] counts the row's entries.
  digits.assign(n * row_len, 0);
  nonzero.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (identity_[i]) {
      continue;
    }
    int16_t* row = &digits[i * row_len];
    const GlvDecomposed d = glv.Decompose(scalars[i]);
    SignedDigits(d.k1, c_, num_windows_, row, 1);
    SignedDigits(d.k2, c_, num_windows_, row + windows, 1);
    for (size_t k = 0; k < row_len; ++k) {
      if (k < windows ? d.k1_neg : d.k2_neg) {
        row[k] = static_cast<int16_t>(-row[k]);
      }
      nonzero[i] += row[k] != 0 ? 1 : 0;
    }
  }

  carry.Resize(nb);
  std::fill(carry.alive.begin(), carry.alive.end(), 0);
  for (size_t lo = 0; lo < n;) {
    // A sub-range takes bases until their entries would pass
    // kTableRangePoints (at least one base), so narrow scalars — few
    // nonzero windows — share one pass instead of paying a reduction per
    // fixed-size slice.
    size_t hi = lo;
    size_t entries = 0;
    while (hi < n && (hi == lo || entries + nonzero[hi] <= kTableRangePoints)) {
      entries += nonzero[hi++];
    }
    bs.cnt.assign(nb, 0);
    bs.Count(&digits[lo * row_len], (hi - lo) * row_len);
    for (size_t b = 0; b < nb; ++b) {
      bs.cnt[b] += carry.alive[b];
    }
    bs.Layout();
    for (size_t b = 0; b < nb; ++b) {
      if (carry.alive[b]) {
        const uint32_t slot = bs.fill[b]++;
        pts.x[slot] = carry.x[b];
        pts.y[slot] = carry.y[b];
      }
    }
    for (size_t i = lo; i < hi; ++i) {
      const int16_t* row = &digits[i * row_len];
      for (size_t k = 0; k < row_len; ++k) {
        const int d = row[k];
        if (d == 0) {
          continue;
        }
        // k < windows: the k1 half against 2^{cw} P_i; otherwise the k2 half
        // against phi(2^{cw} P_i) = (beta * x, y).
        const size_t e = i * windows + (k < windows ? k : k - windows);
        const uint32_t slot = bs.fill[static_cast<size_t>(d < 0 ? -d : d) - 1]++;
        pts.x[slot] = x_[e];
        pts.y[slot] = d < 0 ? y_[e].Neg() : y_[e];
        if (k >= windows) {
          phi_slots[num_phi++] = slot;
          if (num_phi == kPhiBatch) {
            apply_beta();
          }
        }
      }
    }
    apply_beta();
    ReduceBucketChains(pts, bs.start, bs.cnt, 0, nb, bs.add);
    for (size_t b = 0; b < nb; ++b) {
      const uint32_t head = bs.start[b];
      carry.alive[b] = bs.cnt[b] > 0 && pts.alive[head] ? 1 : 0;
      if (carry.alive[b]) {
        carry.x[b] = pts.x[head];
        carry.y[b] = pts.y[head];
      }
    }
    lo = hi;
  }

  // sum_b (b + 1) * B_b by suffix running sums, once for the whole MSM.
  G1 running;
  G1 acc;
  for (size_t b = nb; b-- > 0;) {
    if (carry.alive[b]) {
      running = running.AddMixed(G1Affine{carry.x[b], carry.y[b], /*infinity=*/false});
    }
    acc += running;
  }
  return acc;
}

namespace {

// MulGenerator's windows: signed 8-bit digits in [-128, 128], and 32 windows
// cover a canonical scalar's 254 bits with room for the last carry.
constexpr int kGeneratorWindowBits = 8;
constexpr int kGeneratorWindows = 32;
constexpr size_t kGeneratorDigits = size_t{1} << (kGeneratorWindowBits - 1);

std::atomic<size_t> generator_table_builds{0};

// Entry w * kGeneratorDigits + (d - 1) is d * 2^{8w} * G. The static guard
// makes a racing first caller wait for the build; the builder's
// ParallelForHeavy helps only its own chunks, so a pool worker blocked on
// the guard cannot stall it.
const std::vector<G1Affine>& GeneratorTable() {
  static const std::vector<G1Affine> table = [] {
    // 2^{8w} * G for every window: 248 doublings in one chain, then one
    // shared inversion.
    std::vector<G1> jac(kGeneratorWindows);
    jac[0] = G1::Generator();
    for (int w = 1; w < kGeneratorWindows; ++w) {
      jac[w] = jac[w - 1];
      for (int b = 0; b < kGeneratorWindowBits; ++b) {
        jac[w] = jac[w].Double();
      }
    }
    std::vector<G1Affine> window_bases(kGeneratorWindows);
    G1::BatchToAffine(jac.data(), jac.size(), window_bases.data());
    std::vector<G1Affine> t(kGeneratorWindows * kGeneratorDigits);
    ParallelForHeavy(0, kGeneratorWindows, [&](size_t lo, size_t hi) {
      std::vector<G1> multiples(kGeneratorDigits);
      for (size_t w = lo; w < hi; ++w) {
        multiples[0] = G1::FromAffine(window_bases[w]);
        for (size_t d = 1; d < kGeneratorDigits; ++d) {
          multiples[d] = multiples[d - 1].AddMixed(window_bases[w]);
        }
        G1::BatchToAffine(multiples.data(), kGeneratorDigits, &t[w * kGeneratorDigits]);
      }
    });
    generator_table_builds.fetch_add(1, std::memory_order_relaxed);
    return t;
  }();
  return table;
}

}  // namespace

namespace internal {

size_t GeneratorTableBuilds() { return generator_table_builds.load(std::memory_order_relaxed); }

}  // namespace internal

std::vector<G1Affine> MulGenerator(const std::vector<Fr>& scalars) {
  const std::vector<G1Affine>& table = GeneratorTable();
  std::vector<G1Affine> out(scalars.size());
  ParallelForHeavy(0, scalars.size(), [&](size_t lo, size_t hi) {
    std::vector<G1> products(hi - lo);
    int16_t digits[kGeneratorWindows];
    for (size_t i = lo; i < hi; ++i) {
      SignedDigits(scalars[i].ToCanonical(), kGeneratorWindowBits, kGeneratorWindows, digits, 1);
      G1 acc;
      for (int w = 0; w < kGeneratorWindows; ++w) {
        const int d = digits[w];
        if (d == 0) {
          continue;
        }
        G1Affine p = table[w * kGeneratorDigits + static_cast<size_t>(d < 0 ? -d : d) - 1];
        if (d < 0) {
          p.y = p.y.Neg();
        }
        acc = acc.AddMixed(p);
      }
      products[i - lo] = acc;
    }
    G1::BatchToAffine(products.data(), products.size(), out.data() + lo);
  });
  return out;
}

std::vector<G1Affine> DeriveGenerators(uint64_t seed, size_t count) {
  std::vector<G1Affine> out(count);
  // Each index gets its own PRNG stream so derivation parallelizes while
  // staying deterministic. Every element costs at least one field square
  // root, an exponentiation, hence the heavy-loop split.
  ParallelForHeavy(0, count, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Rng rng((seed ^ 0x5a5a5a5a12345678ULL) + i * 0x9e3779b97f4a7c15ULL);
      for (;;) {
        Fq x = Fq::Random(rng);
        Fq y;
        if (!FqSqrt(x * x * x + CurveB(), &y)) {
          continue;
        }
        if ((y.ToCanonical().limbs[0] & 1) != 0) {
          y = y.Neg();
        }
        out[i] = G1Affine{x, y, /*infinity=*/false};
        ZKML_DCHECK(out[i].IsOnCurve());
        break;
      }
    }
  });
  return out;
}

}  // namespace zkml
