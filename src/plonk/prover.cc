#include "src/plonk/prover.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "src/base/buffer_pool.h"
#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/base/timer.h"
#include "src/ff/fr_key.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/plonk/quotient.h"
#include "src/poly/polynomial.h"
#include "src/transcript/transcript.h"

namespace zkml {
namespace {

Fr EvalPoly(const std::vector<Fr>& coeffs, const Fr& x) {
  Fr acc = Fr::Zero();
  for (size_t i = coeffs.size(); i-- > 0;) {
    acc = acc * x + coeffs[i];
  }
  return acc;
}

std::string HumanCount(uint64_t v) {
  char buf[32];
  if (v >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) * 1e-6);
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fk", static_cast<double>(v) * 1e-3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  }
  return buf;
}

// One entry per prover round, recorded two ways at once: a ProverStageMetrics
// entry (wall time + activity-scoped kernel delta) and an obs::Span, so the
// round shows up as a nested stage in --trace output with the same counters.
// Begin(name) closes the previous round and opens the next; the destructor
// closes the last one. Begin doubles as the prover's cooperative-cancellation
// checkpoint: with a CancelToken installed it refuses to open the next round
// once the token fires, so a cancelled proof stops within one round.
class StageRecorder {
 public:
  StageRecorder(ProverMetrics* metrics, const CancelToken* cancel)
      : metrics_(metrics), cancel_(cancel) {
    if (metrics_ != nullptr) {
      metrics_->stages.clear();
      metrics_->total_seconds = 0.0;
    }
  }

  ~StageRecorder() { Close(); }

  Status Begin(const char* name) {
    Close();
    ZKML_RETURN_IF_ERROR(CheckCancel(cancel_, name));
    name_ = name;
    last_ = kernelstats::CaptureScoped();
    timer_.Reset();
    span_.emplace(name);
    return Status::Ok();
  }

  void Close() {
    if (name_ == nullptr) {
      return;
    }
    span_.reset();  // ends the stage span before sampling the counters
    const KernelCounters now = kernelstats::CaptureScoped();
    if (metrics_ != nullptr) {
      ProverStageMetrics stage;
      stage.name = name_;
      stage.seconds = timer_.ElapsedSeconds();
      stage.kernels = now - last_;
      metrics_->total_seconds += stage.seconds;
      metrics_->stages.push_back(std::move(stage));
    }
    name_ = nullptr;
  }

 private:
  ProverMetrics* metrics_;
  const CancelToken* cancel_;
  const char* name_ = nullptr;
  Timer timer_;
  KernelCounters last_;
  std::optional<obs::Span> span_;
};

}  // namespace

std::string ProverMetrics::Summary() const {
  std::string out;
  char line[160];
  for (const ProverStageMetrics& s : stages) {
    std::snprintf(line, sizeof(line), "  %-20s %8.3fs  fft %s (%s pts)  msm %s (%s pts)\n",
                  s.name.c_str(), s.seconds, HumanCount(s.kernels.fft_calls).c_str(),
                  HumanCount(s.kernels.fft_points).c_str(), HumanCount(s.kernels.msm_calls).c_str(),
                  HumanCount(s.kernels.msm_points).c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-20s %8.3fs\n", "total", total_seconds);
  out += line;
  return out;
}

std::vector<uint8_t> CreateProof(const ProvingKey& pk, const Pcs& pcs,
                                 const Assignment& assignment, ProverMetrics* metrics) {
  StatusOr<std::vector<uint8_t>> proof =
      CreateProofCancellable(pk, pcs, assignment, /*cancel=*/nullptr, metrics);
  // Without a token the cancellable core cannot fail.
  ZKML_CHECK_MSG(proof.ok(), proof.status().ToString().c_str());
  return std::move(proof).value();
}

StatusOr<std::vector<uint8_t>> CreateProofCancellable(const ProvingKey& pk, const Pcs& pcs,
                                                      const Assignment& assignment,
                                                      const CancelToken* cancel,
                                                      ProverMetrics* metrics) {
  // Per-activity kernel attribution: when no sink is installed (no tracer, no
  // enclosing activity), install a local one so per-stage deltas stay correct
  // even with concurrent provers in one process.
  KernelSink local_sink;
  std::optional<kernelstats::ScopedSink> sink_scope;
  if (kernelstats::CurrentSink() == nullptr) {
    sink_scope.emplace(&local_sink);
  }
  obs::Span prove_span("prove");
  const uint64_t rss_start_kb = obs::ReadRssHighWaterKb();
  StageRecorder stages(metrics, cancel);
  ZKML_RETURN_IF_ERROR(stages.Begin("advice-commit"));
  const ConstraintSystem& cs = pk.vk.cs;
  const EvaluationDomain& dom = *pk.domain;
  const size_t n = dom.size();
  ZKML_CHECK(assignment.num_rows() == n);
  const int ext_k = cs.QuotientExtensionK();
  const size_t ext_factor = static_cast<size_t>(1) << ext_k;
  const size_t ext_n = n << ext_k;
  const size_t num_chunks = cs.NumPermutationChunks();
  const int chunk_size = cs.PermutationChunkSize();
  const std::vector<Column>& perm_cols = pk.vk.perm_columns;

  std::vector<uint8_t> proof;
  Transcript transcript("zkml-plonk");
  transcript.AppendFr("k", Fr::FromU64(static_cast<uint64_t>(pk.vk.k)));
  for (const auto& col : assignment.instance()) {
    for (const Fr& v : col) {
      transcript.AppendFr("instance", v);
    }
  }

  // Row access with wraparound rotation.
  auto grid_at = [&](const ColumnQuery& q, size_t row) -> Fr {
    int64_t r = static_cast<int64_t>(row) + q.rotation;
    r %= static_cast<int64_t>(n);
    if (r < 0) {
      r += static_cast<int64_t>(n);
    }
    return assignment.Get(q.column, static_cast<size_t>(r));
  };

  // Each round computes all its vectors first and then commits them in one
  // batched PCS call, whose MSMs run as one task group (see pcs.h).

  // --- Round 1: commit advice straight from evaluation form. ---
  // Every commitment is in Lagrange form (see pcs.h), so interpolation is
  // deferred to the quotient round — where the coefficients are needed
  // anyway — and the commit rounds run zero scalar FFTs.
  const size_t num_advice = cs.num_advice_columns();
  const std::vector<PcsCommitment> advice_comms =
      pcs.CommitLagrange(PolyPointers(assignment.advice()));
  for (size_t i = 0; i < num_advice; ++i) {
    transcript.AppendPoint("advice", advice_comms[i].point);
    ProofAppendPoint(&proof, advice_comms[i].point);
  }
  ZKML_RETURN_IF_ERROR(stages.Begin("lookup-mult"));

  const Fr theta = transcript.ChallengeFr("theta");

  // --- Round 2: lookup multiplicities. ---
  const size_t num_lookups = cs.lookups().size();
  std::vector<std::vector<Fr>> lk_f(num_lookups), lk_t(num_lookups), lk_m(num_lookups);
  {
    TaskGroup group;
    for (size_t l = 0; l < num_lookups; ++l) {
      group.Submit([&, l] {
        const LookupArgument& lk = cs.lookups()[l];
        std::vector<Fr>& f = lk_f[l];
        std::vector<Fr>& t = lk_t[l];
        f.assign(n, Fr::Zero());
        t.assign(n, Fr::Zero());
        Fr theta_j = Fr::One();
        for (size_t j = 0; j < lk.inputs.size(); ++j) {
          std::vector<Fr> in = lk.inputs[j].EvaluateVector(
              n, [&](const ColumnQuery& q, size_t row) { return grid_at(q, row); });
          const std::vector<Fr>& tab = assignment.fixed()[lk.table[j].index];
          for (size_t r = 0; r < n; ++r) {
            f[r] += in[r] * theta_j;
            t[r] += tab[r] * theta_j;
          }
          theta_j *= theta;
        }
        // Multiplicities: first-occurrence row per table value.
        std::unordered_map<FrKey, size_t, FrKeyHash> first_row;
        first_row.reserve(n * 2);
        for (size_t r = 0; r < n; ++r) {
          first_row.emplace(FrKey(t[r]), r);
        }
        lk_m[l].assign(n, Fr::Zero());
        for (size_t r = 0; r < n; ++r) {
          auto it = first_row.find(FrKey(f[r]));
          ZKML_CHECK_MSG(it != first_row.end(),
                         ("lookup '" + lk.name + "' input missing").c_str());
          lk_m[l][it->second] += Fr::One();
        }
      });
    }
  }
  const std::vector<PcsCommitment> m_comms = pcs.CommitLagrange(PolyPointers(lk_m));
  for (size_t l = 0; l < num_lookups; ++l) {
    transcript.AppendPoint("lookup-m", m_comms[l].point);
    ProofAppendPoint(&proof, m_comms[l].point);
  }
  ZKML_RETURN_IF_ERROR(stages.Begin("lookup-perm-commit"));

  const Fr beta = transcript.ChallengeFr("beta");
  const Fr gamma = transcript.ChallengeFr("gamma");

  // --- Round 3a: lookup helper h and running sum S. ---
  std::vector<std::vector<Fr>> lk_h(num_lookups), lk_s(num_lookups);
  {
    TaskGroup group;
    for (size_t l = 0; l < num_lookups; ++l) {
      group.Submit([&, l] {
        std::vector<Fr> finv(n), tinv(n);
        for (size_t r = 0; r < n; ++r) {
          finv[r] = beta + lk_f[l][r];
          tinv[r] = beta + lk_t[l][r];
        }
        BatchInverse(&finv);
        BatchInverse(&tinv);
        lk_h[l].resize(n);
        lk_s[l].assign(n, Fr::Zero());
        for (size_t r = 0; r < n; ++r) {
          lk_h[l][r] = finv[r] - lk_m[l][r] * tinv[r];
          if (r + 1 < n) {
            lk_s[l][r + 1] = lk_s[l][r] + lk_h[l][r];
          }
        }
        ZKML_DCHECK((lk_s[l][n - 1] + lk_h[l][n - 1]).IsZero());
      });
    }
  }

  // --- Round 3b: permutation grand products (chunked, chained). ---
  const Fr delta = FrDelta();
  std::vector<Fr> delta_pow(perm_cols.size());
  if (!perm_cols.empty()) {
    delta_pow[0] = Fr::One();
    for (size_t i = 1; i < perm_cols.size(); ++i) {
      delta_pow[i] = delta_pow[i - 1] * delta;
    }
  }
  std::vector<std::vector<Fr>> z_values(num_chunks);
  {
    Fr acc = Fr::One();
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t col_begin = c * static_cast<size_t>(chunk_size);
      const size_t col_end = std::min(perm_cols.size(), col_begin + chunk_size);
      std::vector<Fr> num(n, Fr::One());
      std::vector<Fr> den(n, Fr::One());
      for (size_t i = col_begin; i < col_end; ++i) {
        for (size_t r = 0; r < n; ++r) {
          const Fr f = assignment.Get(perm_cols[i], r);
          num[r] *= f + beta * delta_pow[i] * dom.element(r) + gamma;
          den[r] *= f + beta * pk.sigma_values[i][r] + gamma;
        }
      }
      BatchInverse(&den);
      z_values[c].resize(n);
      for (size_t r = 0; r < n; ++r) {
        z_values[c][r] = acc;
        acc *= num[r] * den[r];
      }
    }
    ZKML_CHECK_MSG(num_chunks == 0 || acc == Fr::One(),
                   "copy constraints inconsistent with witness");
  }

  // Round 3 commits h_0, s_0, h_1, s_1, ..., then z_0, z_1, ... as one batch.
  std::vector<const std::vector<Fr>*> round3;
  for (size_t l = 0; l < num_lookups; ++l) {
    round3.push_back(&lk_h[l]);
    round3.push_back(&lk_s[l]);
  }
  for (const std::vector<Fr>& z : z_values) {
    round3.push_back(&z);
  }
  const std::vector<PcsCommitment> round3_comms = pcs.CommitLagrange(round3);
  for (size_t i = 0; i < round3_comms.size(); ++i) {
    const char* label = i >= 2 * num_lookups ? "perm-z" : (i % 2 == 0 ? "lookup-h" : "lookup-s");
    transcript.AppendPoint(label, round3_comms[i].point);
    ProofAppendPoint(&proof, round3_comms[i].point);
  }
  ZKML_RETURN_IF_ERROR(stages.Begin("quotient"));

  const Fr y = transcript.ChallengeFr("y");

  // --- Round 4: quotient. ---
  // Interpolate every committed column exactly once. The coefficient vectors
  // feed the coset extension below and the evaluation/opening rounds after
  // it; in particular the instance columns are no longer re-interpolated at
  // each use site.
  const size_t num_instance = cs.num_instance_columns();
  std::vector<std::vector<Fr>> advice_coeffs(num_advice);
  std::vector<std::vector<Fr>> instance_coeffs(num_instance);
  std::vector<std::vector<Fr>> m_coeffs(num_lookups), h_coeffs(num_lookups),
      s_coeffs(num_lookups);
  std::vector<std::vector<Fr>> z_coeffs(num_chunks);
  {
    TaskGroup group;
    for (size_t i = 0; i < num_advice; ++i) {
      group.Submit([&, i] { advice_coeffs[i] = dom.IfftToCoeffs(assignment.advice()[i]); });
    }
    for (size_t i = 0; i < num_instance; ++i) {
      group.Submit([&, i] { instance_coeffs[i] = dom.IfftToCoeffs(assignment.instance()[i]); });
    }
    for (size_t l = 0; l < num_lookups; ++l) {
      group.Submit([&, l] {
        m_coeffs[l] = dom.IfftToCoeffs(lk_m[l]);
        h_coeffs[l] = dom.IfftToCoeffs(lk_h[l]);
        s_coeffs[l] = dom.IfftToCoeffs(lk_s[l]);
      });
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      group.Submit([&, c] { z_coeffs[c] = dom.IfftToCoeffs(z_values[c]); });
    }
  }

  std::vector<Fr> quotient_coeffs;
  {
    // Coset tables live in pooled buffers: one proof burns through dozens of
    // ext_n-sized scratch vectors, and the pool recycles the allocations
    // across columns and across proofs in the same process.
    VectorPool<Fr>& pool = VectorPool<Fr>::Global();
    auto coset_into = [&](const std::vector<Fr>& coeffs, PooledVector<Fr>& out) {
      out = AcquirePooled(pool, ext_n);
      dom.CosetFftFromCoeffsInto(coeffs, ext_k, out.get());
    };
    std::vector<PooledVector<Fr>> advice_coset(num_advice);
    std::vector<PooledVector<Fr>> fixed_coset(cs.num_fixed_columns());
    std::vector<PooledVector<Fr>> instance_coset(num_instance);
    std::vector<PooledVector<Fr>> sigma_coset(perm_cols.size());
    std::vector<PooledVector<Fr>> z_coset(num_chunks);
    std::vector<PooledVector<Fr>> h_coset(num_lookups), s_coset(num_lookups),
        m_coset(num_lookups);
    PooledVector<Fr> l0_coset, llast_coset;
    {
      TaskGroup group;
      for (size_t i = 0; i < num_advice; ++i) {
        group.Submit([&, i] { coset_into(advice_coeffs[i], advice_coset[i]); });
      }
      for (size_t i = 0; i < cs.num_fixed_columns(); ++i) {
        group.Submit([&, i] { coset_into(pk.fixed_coeffs[i], fixed_coset[i]); });
      }
      for (size_t i = 0; i < num_instance; ++i) {
        group.Submit([&, i] { coset_into(instance_coeffs[i], instance_coset[i]); });
      }
      for (size_t i = 0; i < perm_cols.size(); ++i) {
        group.Submit([&, i] { coset_into(pk.sigma_coeffs[i], sigma_coset[i]); });
      }
      for (size_t c = 0; c < num_chunks; ++c) {
        group.Submit([&, c] { coset_into(z_coeffs[c], z_coset[c]); });
      }
      for (size_t l = 0; l < num_lookups; ++l) {
        group.Submit([&, l] {
          coset_into(h_coeffs[l], h_coset[l]);
          coset_into(s_coeffs[l], s_coset[l]);
          coset_into(m_coeffs[l], m_coset[l]);
        });
      }
      group.Submit([&] { coset_into(pk.l0_coeffs, l0_coset); });
      group.Submit([&] { coset_into(pk.llast_coeffs, llast_coset); });
    }
    // coset_x[j] = g * w_ext^j: the identity polynomial X on the coset.
    std::vector<Fr> coset_x(ext_n);
    {
      const Fr w_ext = FrRootOfUnity(pk.vk.k + ext_k);
      Fr cur = Fr::FromU64(FrParams::kGenerator);
      for (size_t j = 0; j < ext_n; ++j) {
        coset_x[j] = cur;
        cur *= w_ext;
      }
    }
    const std::vector<Fr> zh_inv = dom.VanishingInverseOnCoset(ext_k);

    // The compiled engine computes the y-combined numerator and the division
    // by Z_H in one fused row pass, replacing the per-constraint AST walks.
    QuotientEvaluator::Tables qt;
    qt.fixed.reserve(fixed_coset.size());
    for (const auto& v : fixed_coset) {
      qt.fixed.push_back(v.get());
    }
    qt.advice.reserve(advice_coset.size());
    for (const auto& v : advice_coset) {
      qt.advice.push_back(v.get());
    }
    qt.instance.reserve(instance_coset.size());
    for (const auto& v : instance_coset) {
      qt.instance.push_back(v.get());
    }
    qt.sigma.reserve(sigma_coset.size());
    for (const auto& v : sigma_coset) {
      qt.sigma.push_back(v.get());
    }
    qt.z.reserve(z_coset.size());
    for (const auto& v : z_coset) {
      qt.z.push_back(v.get());
    }
    for (size_t l = 0; l < num_lookups; ++l) {
      qt.m.push_back(m_coset[l].get());
      qt.h.push_back(h_coset[l].get());
      qt.s.push_back(s_coset[l].get());
    }
    qt.l0 = l0_coset.get();
    qt.llast = llast_coset.get();
    qt.coset_x = &coset_x;
    qt.zh_inv = &zh_inv;
    qt.ext_n = ext_n;
    qt.ext_factor = ext_factor;

    QuotientEvaluator::Challenges qch;
    qch.theta = theta;
    qch.beta = beta;
    qch.gamma = gamma;
    qch.y = y;
    qch.delta_pow = &delta_pow;

    std::shared_ptr<const QuotientEvaluator> qe = pk.quotient;
    if (qe == nullptr) {
      // Hand-built proving keys (tests) may lack the precompiled engine.
      qe = std::make_shared<const QuotientEvaluator>(cs, perm_cols);
    }
    PooledVector<Fr> numerator = AcquirePooled(pool, ext_n);
    qe->Evaluate(qt, qch, numerator.get());
    quotient_coeffs = dom.CosetIfftToCoeffs(*numerator, ext_k);
    // Pooled coset buffers release back to the pool as this scope ends.
  }
  {
    const VectorPoolStats ps = VectorPool<Fr>::Global().stats();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.gauge("prover.pool.hits").Set(static_cast<double>(ps.hits));
    reg.gauge("prover.pool.misses").Set(static_cast<double>(ps.misses));
    reg.gauge("prover.pool.dropped").Set(static_cast<double>(ps.dropped));
    reg.gauge("prover.pool.retained_bytes").Set(static_cast<double>(ps.retained_bytes));
    reg.gauge("prover.pool.peak_retained_bytes")
        .Set(static_cast<double>(ps.peak_retained_bytes));
    reg.gauge("prover.rss_hwm_delta_kb")
        .Set(static_cast<double>(obs::ReadRssHighWaterKb() - rss_start_kb));
  }
  // The chunks are opened in coefficient form and committed in Lagrange
  // form, like every other column: one n-point FFT each.
  std::vector<std::vector<Fr>> q_chunks(ext_factor);
  std::vector<std::vector<Fr>> q_chunk_evals(ext_factor);
  {
    TaskGroup group;
    for (size_t i = 0; i < ext_factor; ++i) {
      group.Submit([&, i] {
        q_chunks[i] = std::vector<Fr>(quotient_coeffs.begin() + i * n,
                                      quotient_coeffs.begin() + (i + 1) * n);
        q_chunk_evals[i] = dom.FftFromCoeffs(q_chunks[i]);
      });
    }
  }
  for (const PcsCommitment& q : pcs.CommitLagrange(PolyPointers(q_chunk_evals))) {
    transcript.AppendPoint("quotient", q.point);
    ProofAppendPoint(&proof, q.point);
  }
  ZKML_RETURN_IF_ERROR(stages.Begin("evals"));

  const Fr x = transcript.ChallengeFr("x");

  // --- Round 5: evaluations. ---
  // Canonical evaluation plan: every entry is (coeffs, rotation).
  struct OpenEntry {
    const std::vector<Fr>* coeffs;
    int32_t rotation;
  };
  std::vector<OpenEntry> entries;
  const std::vector<ColumnQuery> queries = cs.AllQueries();
  for (const ColumnQuery& q : queries) {
    if (q.column.type == ColumnType::kInstance) {
      continue;  // verifier evaluates instance columns itself
    }
    const std::vector<Fr>* coeffs = q.column.type == ColumnType::kAdvice
                                        ? &advice_coeffs[q.column.index]
                                        : &pk.fixed_coeffs[q.column.index];
    entries.push_back(OpenEntry{coeffs, q.rotation});
  }
  for (size_t i = 0; i < perm_cols.size(); ++i) {
    entries.push_back(OpenEntry{&pk.sigma_coeffs[i], 0});
  }
  for (size_t l = 0; l < num_lookups; ++l) {
    entries.push_back(OpenEntry{&m_coeffs[l], 0});
    entries.push_back(OpenEntry{&h_coeffs[l], 0});
    entries.push_back(OpenEntry{&s_coeffs[l], 0});
    entries.push_back(OpenEntry{&s_coeffs[l], 1});
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    entries.push_back(OpenEntry{&z_coeffs[c], 0});
    entries.push_back(OpenEntry{&z_coeffs[c], 1});
  }
  for (size_t i = 0; i < ext_factor; ++i) {
    entries.push_back(OpenEntry{&q_chunks[i], 0});
  }

  auto rot_point = [&](int32_t rot) {
    int64_t r = rot % static_cast<int64_t>(n);
    if (r < 0) {
      r += static_cast<int64_t>(n);
    }
    return x * dom.element(static_cast<size_t>(r));
  };

  std::vector<Fr> evals(entries.size());
  {
    TaskGroup group;
    for (size_t e = 0; e < entries.size(); ++e) {
      group.Submit(
          [&, e] { evals[e] = EvalPoly(*entries[e].coeffs, rot_point(entries[e].rotation)); });
    }
  }
  for (size_t e = 0; e < entries.size(); ++e) {
    transcript.AppendFr("eval", evals[e]);
    ProofAppendFr(&proof, evals[e]);
  }
  ZKML_RETURN_IF_ERROR(stages.Begin("openings"));

  // --- Round 6: openings grouped by rotation (ascending). ---
  std::set<int32_t> rotations;
  for (const OpenEntry& e : entries) {
    rotations.insert(e.rotation);
  }
  for (int32_t rot : rotations) {
    std::vector<const std::vector<Fr>*> polys;
    for (const OpenEntry& e : entries) {
      if (e.rotation == rot) {
        polys.push_back(e.coeffs);
      }
    }
    pcs.OpenBatch(polys, rot_point(rot), &transcript, &proof);
  }
  stages.Close();

  return proof;
}

}  // namespace zkml
