#include "src/poly/domain.h"

#include <algorithm>
#include <functional>

#include "src/base/check.h"
#include "src/base/kernel_stats.h"
#include "src/base/thread_pool.h"
#include "src/ff/batch_mul.h"

namespace zkml {
namespace {

void BitReversePermute(Fr* values, size_t n) {
  size_t j = 0;
  for (size_t i = 1; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(values[i], values[j]);
    }
  }
}

// out[i] = scale * base^i for i in [0, n). Chunks are seeded with Pow, so the
// table builds in parallel; the values are identical to a serial running
// product because field arithmetic is exact.
std::vector<Fr> BuildPowers(const Fr& base, size_t n, const Fr& scale) {
  std::vector<Fr> out(n);
  ParallelFor(0, n, [&](size_t lo, size_t hi) {
    Fr cur = base.Pow(U256::FromU64(lo)) * scale;
    for (size_t i = lo; i < hi; ++i) {
      out[i] = cur;
      cur *= base;
    }
  });
  return out;
}

// ---- Cache-blocked six-step (Bailey) FFT for large transforms ------------
//
// A radix-2 transform of n Fr elements makes log2(n) full passes over
// 32 * n bytes; once the array outgrows L2 every pass streams from the outer
// cache levels. The six-step factorization n = R * C instead runs two
// batches of small contiguous FFTs (length R, then length C — each row is
// L1/L2-resident) separated by blocked transposes, trading the log2(n)
// streaming passes for ~3 transpose passes plus one twiddle pass. Field
// arithmetic is exact, so the reassociated evaluation produces bit-identical
// values to the radix-2 path.

// Transforms at or above this size take the six-step path.
constexpr size_t kSixStepMinN = static_cast<size_t>(1) << 17;

// Square tile edge for the blocked transpose: two 16x16 Fr tiles are 16 KiB,
// comfortably L1-resident.
constexpr size_t kTransposeTile = 16;

// dst (cols x rows) = transpose of src (rows x cols), tile by tile so both
// the row-major reads and the column-major writes stay within a tile set.
void TransposeBlocked(const Fr* src, size_t rows, size_t cols, Fr* dst) {
  const size_t row_tiles = (rows + kTransposeTile - 1) / kTransposeTile;
  const size_t col_tiles = (cols + kTransposeTile - 1) / kTransposeTile;
  ParallelFor(
      0, row_tiles * col_tiles,
      [&](size_t lo, size_t hi) {
        for (size_t t = lo; t < hi; ++t) {
          const size_t r0 = (t / col_tiles) * kTransposeTile;
          const size_t c0 = (t % col_tiles) * kTransposeTile;
          const size_t r1 = std::min(rows, r0 + kTransposeTile);
          const size_t c1 = std::min(cols, c0 + kTransposeTile);
          for (size_t r = r0; r < r1; ++r) {
            for (size_t c = c0; c < c1; ++c) {
              dst[c * rows + r] = src[r * cols + c];
            }
          }
        }
      },
      2 * kTransposeTile * kTransposeTile * sizeof(Fr));
}

// Dense per-stage butterfly twiddles for a length-L row transform whose
// elements step by tw_stride through the full table (tw[i * tw_stride] =
// w_L^i). Stages are concatenated smallest-first: len = 2 contributes one
// entry, len = 4 two, ..., L - 1 entries total. Building them densely once
// per pass lets every row's butterfly multiplies run as contiguous BatchMuls.
std::vector<Fr> BuildStageTwiddles(size_t L, const Fr* tw, size_t tw_stride) {
  std::vector<Fr> out;
  out.reserve(L);
  for (size_t len = 2; len <= L; len <<= 1) {
    const size_t half = len / 2;
    const size_t stage_stride = (L / len) * tw_stride;
    for (size_t j = 0; j < half; ++j) {
      out.push_back(tw[j * stage_stride]);
    }
  }
  return out;
}

// Serial in-place radix-2 DIT FFT over one contiguous cache-resident row,
// with the twiddle products of each stage batched through the dispatched
// Montgomery kernels. `stw` comes from BuildStageTwiddles(L, ...); `vbuf`
// holds at least L / 2 elements.
void FftRowSerial(Fr* a, size_t L, const Fr* stw, Fr* vbuf) {
  BitReversePermute(a, L);
  size_t off = 0;
  for (size_t len = 2; len <= L; len <<= 1) {
    const size_t half = len / 2;
    const Fr* twd = stw + off;
    off += half;
    for (size_t base = 0; base < L; base += len) {
      if (half >= 8) {
        BatchMul(vbuf, a + base + half, twd, half);
      } else {
        // Blocks too short for a SIMD group: multiply one at a time,
        // skipping twd[0] == 1 (every product of the first stage, half of
        // the second's).
        vbuf[0] = a[base + half];
        for (size_t j = 1; j < half; ++j) {
          vbuf[j] = a[base + half + j] * twd[j];
        }
      }
      for (size_t j = 0; j < half; ++j) {
        const Fr u = a[base + j];
        const Fr v = vbuf[j];
        a[base + j] = u + v;
        a[base + half + j] = u - v;
      }
    }
  }
}

// The table FftCore reads for a size-n transform, built from plain[i] = w^i
// for i < n / 2. Above kSerialFftMaxN that is `plain` itself. Up to it, the
// serial pass's stage table (BuildStageTwiddles): its last stage is exactly
// `plain`, so one vector serves the serial path with no second copy.
std::vector<Fr> TwiddleTable(std::vector<Fr> plain) {
  const size_t n = 2 * plain.size();
  if (n < 2 || n > kSerialFftMaxN) {
    return plain;
  }
  return BuildStageTwiddles(n, plain.data(), 1);
}

// Per-thread butterfly scratch for the serial path (n / 2 elements), grown
// monotonically so repeated transforms allocate nothing.
Fr* SerialFftScratch(size_t n) {
  static thread_local std::vector<Fr> scratch;
  if (scratch.size() < n / 2) {
    scratch.resize(n / 2);
  }
  return scratch.data();
}

// Runs fn over [0, n) for a transform's pointwise scaling pass: inline on
// the serial path, across the pool above it.
void ScalePass(size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n <= kSerialFftMaxN) {
    fn(0, n);
  } else {
    ParallelFor(0, n, fn);
  }
}

// Reused inter-pass buffer: one n-sized scratch per thread that calls large
// FFTs, grown monotonically so repeated proving passes pay the page faults
// once. The final swap donates the caller's old storage back to the pool.
std::vector<Fr>& SixStepScratch() {
  static thread_local std::vector<Fr> scratch;
  return scratch;
}

// Six-step FFT: view a as an R x C row-major matrix (j = r * C + c), then
//   1. transpose to C x R
//   2. length-R FFT of each row
//   3. scale entry (c, k1) by w^(c * k1)   [fused into step 2's row loop]
//   4. transpose to R x C
//   5. length-C FFT of each row
//   6. transpose to C x R, which is exactly the natural-order spectrum.
// tw[i] = w^i for i < n / 2 (the same table the radix-2 path reads).
void SixStepFft(std::vector<Fr>& a, const Fr* tw) {
  const size_t n = a.size();
  int logn = 0;
  while ((static_cast<size_t>(1) << logn) < n) {
    ++logn;
  }
  const size_t R = static_cast<size_t>(1) << ((logn + 1) / 2);
  const size_t C = n / R;
  std::vector<Fr>& b = SixStepScratch();
  b.resize(n);

  TransposeBlocked(a.data(), R, C, b.data());

  // Rows of b are length R; row c additionally picks up the cross twiddles
  // w^(c * k1), generated as a running product with ratio w^c = tw[c].
  const std::vector<Fr> stw_r = BuildStageTwiddles(R, tw, n / R);
  ParallelFor(
      0, C,
      [&](size_t lo, size_t hi) {
        std::vector<Fr> vbuf(R / 2);
        std::vector<Fr> fac(R);
        for (size_t c = lo; c < hi; ++c) {
          Fr* row = b.data() + c * R;
          FftRowSerial(row, R, stw_r.data(), vbuf.data());
          if (c == 0) {
            continue;  // w^0 = 1 for the whole row
          }
          const Fr ratio = tw[c];
          fac[0] = Fr::One();
          for (size_t k1 = 1; k1 < R; ++k1) {
            fac[k1] = fac[k1 - 1] * ratio;
          }
          BatchMul(row, row, fac.data(), R);
        }
      },
      R * sizeof(Fr));

  TransposeBlocked(b.data(), C, R, a.data());

  const std::vector<Fr> stw_c = BuildStageTwiddles(C, tw, n / C);
  ParallelFor(
      0, R,
      [&](size_t lo, size_t hi) {
        std::vector<Fr> vbuf(C / 2);
        for (size_t k1 = lo; k1 < hi; ++k1) {
          FftRowSerial(a.data() + k1 * C, C, stw_c.data(), vbuf.data());
        }
      },
      C * sizeof(Fr));

  TransposeBlocked(a.data(), R, C, b.data());
  a.swap(b);
}

// `tw` comes from TwiddleTable for a.size().
void FftCore(std::vector<Fr>& a, const std::vector<Fr>& tw) {
  const size_t n = a.size();
  ZKML_CHECK_MSG((n & (n - 1)) == 0, "FFT size must be a power of two");
  kernelstats::RecordFft(n);
  if (n <= 1) {
    return;
  }
  if (n <= kSerialFftMaxN) {
    FftRowSerial(a.data(), n, tw.data(), SerialFftScratch(n));
    return;
  }
  if (n >= kSixStepMinN) {
    SixStepFft(a, tw.data());
    return;
  }
  // Radix-2 DIT with each stage's n/2 butterflies parallelized over the
  // flattened butterfly index: a chunk covers many whole blocks in the early
  // stages and a j-range inside one wide block in the late ones.
  BitReversePermute(a.data(), n);
  for (size_t len = 2; len <= n; len <<= 1) {
    const size_t half = len / 2;
    const size_t stride = n / len;
    ParallelFor(0, n / 2, [&](size_t lo, size_t hi) {
      size_t i = lo;
      while (i < hi) {
        const size_t blk = i / half;
        const size_t j0 = i % half;
        const size_t j1 = std::min(half, j0 + (hi - i));
        const size_t base = blk * len;
        for (size_t j = j0; j < j1; ++j) {
          const Fr u = a[base + j];
          Fr v = a[base + j + half];
          if (j != 0) {
            v *= tw[j * stride];  // tw[0] == 1: skip the multiply
          }
          a[base + j] = u + v;
          a[base + j + half] = u - v;
        }
        i += j1 - j0;
      }
    });
  }
}

}  // namespace

void Fft(std::vector<Fr>* values, const Fr& omega) {
  const size_t n = values->size();
  ZKML_CHECK_MSG((n & (n - 1)) == 0, "FFT size must be a power of two");
  if (n <= 1) {
    return;
  }
  FftCore(*values, TwiddleTable(BuildPowers(omega, n / 2, Fr::One())));
}

EvaluationDomain::EvaluationDomain(int k) : k_(k), n_(static_cast<size_t>(1) << k) {
  omega_ = FrRootOfUnity(k);
  omega_inv_ = omega_.Inverse();
  n_inv_ = Fr::FromU64(n_).Inverse();
  elements_ = BuildPowers(omega_, n_, Fr::One());
  twiddles_ = TwiddleTable(std::vector<Fr>(elements_.begin(), elements_.begin() + n_ / 2));
  // omega^{-i} = omega^{n-i}, so the inverse powers are the reversed tail of
  // elements_ (with omega^0 = 1 up front).
  std::vector<Fr> inv(n_ / 2);
  if (!inv.empty()) {
    inv[0] = Fr::One();
    for (size_t i = 1; i < n_ / 2; ++i) {
      inv[i] = elements_[n_ - i];
    }
  }
  inv_twiddles_ = TwiddleTable(std::move(inv));
}

std::vector<Fr> EvaluationDomain::FftFromCoeffs(const std::vector<Fr>& coeffs) const {
  ZKML_CHECK_MSG(coeffs.size() <= n_, "polynomial larger than domain");
  std::vector<Fr> vals = coeffs;
  vals.resize(n_, Fr::Zero());
  FftCore(vals, twiddles_);
  return vals;
}

std::vector<Fr> EvaluationDomain::IfftToCoeffs(const std::vector<Fr>& evals) const {
  ZKML_CHECK(evals.size() == n_);
  std::vector<Fr> coeffs = evals;
  FftCore(coeffs, inv_twiddles_);
  ScalePass(n_, [&](size_t lo, size_t hi) {
    BatchMulScalar(coeffs.data() + lo, coeffs.data() + lo, n_inv_, hi - lo);
  });
  return coeffs;
}

const EvaluationDomain::CosetTables& EvaluationDomain::GetCosetTables(int ext_k) const {
  {
    std::lock_guard<std::mutex> lock(coset_mu_);
    auto it = coset_tables_.find(ext_k);
    if (it != coset_tables_.end()) {
      return it->second;
    }
  }
  // Build WITHOUT holding the mutex: BuildPowers runs ParallelFor, and a
  // thread helping the pool there can steal a task that re-enters this
  // function — with the lock held that self-deadlocks. Two threads may race
  // to build the same tables; emplace keeps the first and discards the
  // loser's copy (the values are identical either way, and std::map node
  // references stay stable).
  const size_t ext_n = n_ << ext_k;
  const Fr w_ext = FrRootOfUnity(k_ + ext_k);
  const Fr g = Fr::FromU64(FrParams::kGenerator);
  CosetTables t;
  t.twiddles = TwiddleTable(BuildPowers(w_ext, ext_n / 2, Fr::One()));
  t.inv_twiddles = TwiddleTable(BuildPowers(w_ext.Inverse(), ext_n / 2, Fr::One()));
  t.scale = BuildPowers(g, ext_n, Fr::One());
  t.inv_scale = BuildPowers(g.Inverse(), ext_n, Fr::FromU64(ext_n).Inverse());
  std::lock_guard<std::mutex> lock(coset_mu_);
  return coset_tables_.emplace(ext_k, std::move(t)).first->second;
}

std::vector<Fr> EvaluationDomain::CosetFftFromCoeffs(const std::vector<Fr>& coeffs,
                                                     int ext_k) const {
  std::vector<Fr> vals;
  CosetFftFromCoeffsInto(coeffs, ext_k, &vals);
  return vals;
}

void EvaluationDomain::CosetFftFromCoeffsInto(const std::vector<Fr>& coeffs, int ext_k,
                                              std::vector<Fr>* out) const {
  const size_t ext_n = n_ << ext_k;
  ZKML_CHECK_MSG(coeffs.size() <= ext_n, "polynomial larger than extended domain");
  ZKML_CHECK(out != &coeffs);
  const CosetTables& t = GetCosetTables(ext_k);
  std::vector<Fr>& vals = *out;
  vals.resize(ext_n);
  // Scale coefficient i by g^i (zero-padding the tail), then a plain FFT over
  // H_ext evaluates on gH_ext.
  const size_t m = coeffs.size();
  ScalePass(ext_n, [&](size_t lo, size_t hi) {
    const size_t mid = std::clamp(m, lo, hi);
    if (mid > lo) {
      BatchMul(vals.data() + lo, coeffs.data() + lo, t.scale.data() + lo, mid - lo);
    }
    std::fill(vals.begin() + mid, vals.begin() + hi, Fr::Zero());
  });
  FftCore(vals, t.twiddles);
}

std::vector<Fr> EvaluationDomain::CosetIfftToCoeffs(const std::vector<Fr>& evals,
                                                    int ext_k) const {
  const size_t ext_n = n_ << ext_k;
  ZKML_CHECK(evals.size() == ext_n);
  const CosetTables& t = GetCosetTables(ext_k);
  std::vector<Fr> coeffs = evals;
  FftCore(coeffs, t.inv_twiddles);
  ScalePass(ext_n, [&](size_t lo, size_t hi) {
    BatchMul(coeffs.data() + lo, coeffs.data() + lo, t.inv_scale.data() + lo, hi - lo);
  });
  return coeffs;
}

std::vector<Fr> EvaluationDomain::VanishingInverseOnCoset(int ext_k) const {
  const size_t ext_n = n_ << ext_k;
  const size_t period = static_cast<size_t>(1) << ext_k;
  // Z_H(g * w_ext^j) = g^n * (w_ext^n)^j - 1, and w_ext^n is a primitive
  // 2^ext_k-th root of unity, so the values repeat with that period.
  const Fr g_to_n = Fr::FromU64(FrParams::kGenerator).Pow(U256::FromU64(n_));
  const Fr w_ext_n = FrRootOfUnity(k_ + ext_k).Pow(U256::FromU64(n_));
  std::vector<Fr> cycle(period);
  Fr cur = g_to_n;
  for (size_t j = 0; j < period; ++j) {
    cycle[j] = cur - Fr::One();
    ZKML_CHECK_MSG(!cycle[j].IsZero(), "vanishing polynomial vanished on coset");
    cur *= w_ext_n;
  }
  BatchInverse(&cycle);
  std::vector<Fr> out(ext_n);
  ParallelFor(0, ext_n, [&](size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) {
      out[j] = cycle[j % period];
    }
  });
  return out;
}

Fr EvaluationDomain::EvaluateVanishing(const Fr& x) const {
  return x.Pow(U256::FromU64(n_)) - Fr::One();
}

Fr EvaluationDomain::EvaluateLagrange(size_t i, const Fr& x) const {
  const Fr num = elements_[i % n_] * EvaluateVanishing(x);
  const Fr den = Fr::FromU64(n_) * (x - elements_[i % n_]);
  return num * den.Inverse();
}

std::vector<Fr> EvaluationDomain::LagrangeCoefficients(const Fr& x, size_t count) const {
  ZKML_CHECK(count <= n_);
  std::vector<Fr> out(count, Fr::Zero());
  const Fr vanishing = EvaluateVanishing(x);
  if (vanishing.IsZero()) {
    // x^n = 1, so x is some omega^j: l_j(x) = 1 and every other l_i(x) = 0.
    for (size_t i = 0; i < count; ++i) {
      if (elements_[i] == x) {
        out[i] = Fr::One();
      }
    }
    return out;
  }
  // omega^i * (x^n - 1)/n / (x - omega^i), the divisions batched.
  for (size_t i = 0; i < count; ++i) {
    out[i] = x - elements_[i];
  }
  std::vector<Fr> save;
  std::vector<Fr> scratch;
  BatchInverseFlatNonZero(out.data(), count, save, scratch);
  BatchMul(out.data(), out.data(), elements_.data(), count);
  BatchMulScalar(out.data(), out.data(), vanishing * n_inv_, count);
  return out;
}

Fr EvaluationDomain::EvaluateLagrangeCombination(const std::vector<Fr>& values,
                                                 const Fr& x) const {
  const std::vector<Fr> l = LagrangeCoefficients(x, values.size());
  Fr acc = Fr::Zero();
  for (size_t i = 0; i < values.size(); ++i) {
    acc += values[i] * l[i];
  }
  return acc;
}

}  // namespace zkml
