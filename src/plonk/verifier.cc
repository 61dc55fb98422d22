#include "src/plonk/verifier.h"

#include <map>
#include <optional>
#include <set>

#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/poly/domain.h"
#include "src/transcript/transcript.h"

namespace zkml {

const char* VerifyStageName(VerifyStage stage) {
  switch (stage) {
    case VerifyStage::kAccepted:
      return "accepted";
    case VerifyStage::kInstance:
      return "instance";
    case VerifyStage::kAdviceCommitments:
      return "advice-commitments";
    case VerifyStage::kLookupCommitments:
      return "lookup-commitments";
    case VerifyStage::kPermutationCommitments:
      return "permutation-commitments";
    case VerifyStage::kQuotientCommitments:
      return "quotient-commitments";
    case VerifyStage::kEvaluations:
      return "evaluations";
    case VerifyStage::kVanishingCheck:
      return "vanishing-check";
    case VerifyStage::kPcsOpening:
      return "pcs-opening";
    case VerifyStage::kTrailingBytes:
      return "trailing-bytes";
    case VerifyStage::kShardStitch:
      return "shard-stitch";
    case VerifyStage::kShardAggregate:
      return "shard-aggregate";
    case VerifyStage::kBatchStitch:
      return "batch-stitch";
    case VerifyStage::kBatchAggregate:
      return "batch-aggregate";
  }
  return "unknown";
}

std::string VerifyResult::ToString() const {
  if (ok()) {
    return "accepted";
  }
  return std::string("rejected at stage ") + VerifyStageName(stage) + ": " + status.ToString();
}

VerifyResult VerifyProof(const VerifyingKey& vk, const Pcs& pcs,
                         const std::vector<std::vector<Fr>>& instance_columns,
                         const std::vector<uint8_t>& proof) {
  obs::Span verify_span("verify");
  // Stage sub-spans; emplace() ends the previous one (LIFO within
  // verify_span), early rejects unwind both via RAII.
  std::optional<obs::Span> section;
  section.emplace("verify-read-proof");

  const ConstraintSystem& cs = vk.cs;
  if (instance_columns.size() != cs.num_instance_columns()) {
    return VerifyResult::Rejected(
        VerifyStage::kInstance,
        InvalidArgumentError("expected " + std::to_string(cs.num_instance_columns()) +
                             " instance columns, got " +
                             std::to_string(instance_columns.size())));
  }
  EvaluationDomain dom(vk.k);
  const size_t n = dom.size();
  const int ext_k = cs.QuotientExtensionK();
  const size_t ext_factor = static_cast<size_t>(1) << ext_k;
  const size_t num_lookups = cs.lookups().size();
  const size_t num_chunks = cs.NumPermutationChunks();
  const int chunk_size = cs.PermutationChunkSize();
  const std::vector<Column>& perm_cols = vk.perm_columns;

  size_t offset = 0;
  Transcript transcript("zkml-plonk");
  transcript.AppendFr("k", Fr::FromU64(static_cast<uint64_t>(vk.k)));
  for (size_t i = 0; i < instance_columns.size(); ++i) {
    const auto& col = instance_columns[i];
    if (col.size() > n) {
      return VerifyResult::Rejected(
          VerifyStage::kInstance,
          InvalidArgumentError("instance column " + std::to_string(i) + " has " +
                               std::to_string(col.size()) + " rows, circuit has only " +
                               std::to_string(n)));
    }
    for (size_t r = 0; r < n; ++r) {
      transcript.AppendFr("instance", r < col.size() ? col[r] : Fr::Zero());
    }
  }

  // --- Commitments, mirroring the prover's rounds. ---
  std::vector<PcsCommitment> advice_comms(cs.num_advice_columns());
  for (size_t i = 0; i < advice_comms.size(); ++i) {
    const std::string what = "advice commitment " + std::to_string(i);
    if (Status s = ProofReadPoint(proof, &offset, &advice_comms[i].point, what.c_str());
        !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kAdviceCommitments, std::move(s));
    }
    transcript.AppendPoint("advice", advice_comms[i].point);
  }
  const Fr theta = transcript.ChallengeFr("theta");

  std::vector<PcsCommitment> m_comms(num_lookups);
  for (size_t l = 0; l < num_lookups; ++l) {
    const std::string what = "lookup " + std::to_string(l) + " m commitment";
    if (Status s = ProofReadPoint(proof, &offset, &m_comms[l].point, what.c_str()); !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kLookupCommitments, std::move(s));
    }
    transcript.AppendPoint("lookup-m", m_comms[l].point);
  }
  const Fr beta = transcript.ChallengeFr("beta");
  const Fr gamma = transcript.ChallengeFr("gamma");

  std::vector<PcsCommitment> h_comms(num_lookups), s_comms(num_lookups);
  for (size_t l = 0; l < num_lookups; ++l) {
    const std::string what_h = "lookup " + std::to_string(l) + " h commitment";
    const std::string what_s = "lookup " + std::to_string(l) + " s commitment";
    if (Status s = ProofReadPoint(proof, &offset, &h_comms[l].point, what_h.c_str()); !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kLookupCommitments, std::move(s));
    }
    if (Status s = ProofReadPoint(proof, &offset, &s_comms[l].point, what_s.c_str()); !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kLookupCommitments, std::move(s));
    }
    transcript.AppendPoint("lookup-h", h_comms[l].point);
    transcript.AppendPoint("lookup-s", s_comms[l].point);
  }
  std::vector<PcsCommitment> z_comms(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const std::string what = "permutation z commitment " + std::to_string(c);
    if (Status s = ProofReadPoint(proof, &offset, &z_comms[c].point, what.c_str()); !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kPermutationCommitments, std::move(s));
    }
    transcript.AppendPoint("perm-z", z_comms[c].point);
  }
  const Fr y = transcript.ChallengeFr("y");

  std::vector<PcsCommitment> q_comms(ext_factor);
  for (size_t i = 0; i < ext_factor; ++i) {
    const std::string what = "quotient chunk commitment " + std::to_string(i);
    if (Status s = ProofReadPoint(proof, &offset, &q_comms[i].point, what.c_str()); !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kQuotientCommitments, std::move(s));
    }
    transcript.AppendPoint("quotient", q_comms[i].point);
  }
  const Fr x = transcript.ChallengeFr("x");

  // --- Evaluations, in the prover's canonical order. ---
  struct OpenEntry {
    const PcsCommitment* commitment;  // null for instance (not committed)
    int32_t rotation;
    Fr eval;
  };
  std::vector<OpenEntry> entries;
  const std::vector<ColumnQuery> queries = cs.AllQueries();
  std::map<ColumnQuery, Fr> query_eval;  // for constraint reconstruction

  auto rot_point = [&](int32_t rot) {
    int64_t r = rot % static_cast<int64_t>(n);
    if (r < 0) {
      r += static_cast<int64_t>(n);
    }
    return x * dom.element(static_cast<size_t>(r));
  };

  for (const ColumnQuery& q : queries) {
    if (q.column.type == ColumnType::kInstance) {
      continue;
    }
    const PcsCommitment* c = q.column.type == ColumnType::kAdvice
                                 ? &advice_comms[q.column.index]
                                 : &vk.fixed_commitments[q.column.index];
    entries.push_back(OpenEntry{c, q.rotation, Fr::Zero()});
  }
  std::vector<Fr> sigma_evals(perm_cols.size());
  std::vector<Fr> m_evals(num_lookups), h_evals(num_lookups), s_evals(num_lookups),
      s_next_evals(num_lookups);
  std::vector<Fr> z_evals(num_chunks), z_next_evals(num_chunks);
  std::vector<Fr> q_evals(ext_factor);

  for (size_t i = 0; i < perm_cols.size(); ++i) {
    entries.push_back(OpenEntry{&vk.sigma_commitments[i], 0, Fr::Zero()});
  }
  for (size_t l = 0; l < num_lookups; ++l) {
    entries.push_back(OpenEntry{&m_comms[l], 0, Fr::Zero()});
    entries.push_back(OpenEntry{&h_comms[l], 0, Fr::Zero()});
    entries.push_back(OpenEntry{&s_comms[l], 0, Fr::Zero()});
    entries.push_back(OpenEntry{&s_comms[l], 1, Fr::Zero()});
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    entries.push_back(OpenEntry{&z_comms[c], 0, Fr::Zero()});
    entries.push_back(OpenEntry{&z_comms[c], 1, Fr::Zero()});
  }
  for (size_t i = 0; i < ext_factor; ++i) {
    entries.push_back(OpenEntry{&q_comms[i], 0, Fr::Zero()});
  }

  for (size_t i = 0; i < entries.size(); ++i) {
    const std::string what = "evaluation " + std::to_string(i) + " of " +
                             std::to_string(entries.size()) + " (rotation " +
                             std::to_string(entries[i].rotation) + ")";
    if (Status s = ProofReadFr(proof, &offset, &entries[i].eval, what.c_str()); !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kEvaluations, std::move(s));
    }
    transcript.AppendFr("eval", entries[i].eval);
  }

  // Distribute the evals back to named slots (same order as pushed).
  {
    size_t e = 0;
    for (const ColumnQuery& q : queries) {
      if (q.column.type == ColumnType::kInstance) {
        // Compute the instance evaluation directly from public values.
        query_eval[q] =
            dom.EvaluateLagrangeCombination(instance_columns[q.column.index], rot_point(q.rotation));
        continue;
      }
      query_eval[q] = entries[e++].eval;
    }
    for (size_t i = 0; i < perm_cols.size(); ++i) {
      sigma_evals[i] = entries[e++].eval;
    }
    for (size_t l = 0; l < num_lookups; ++l) {
      m_evals[l] = entries[e++].eval;
      h_evals[l] = entries[e++].eval;
      s_evals[l] = entries[e++].eval;
      s_next_evals[l] = entries[e++].eval;
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      z_evals[c] = entries[e++].eval;
      z_next_evals[c] = entries[e++].eval;
    }
    for (size_t i = 0; i < ext_factor; ++i) {
      q_evals[i] = entries[e++].eval;
    }
  }

  auto resolve = [&](const ColumnQuery& q) -> Fr {
    auto it = query_eval.find(q);
    if (it != query_eval.end()) {
      return it->second;
    }
    return Fr::Zero();
  };

  // --- Reconstruct the constraint identity at x. ---
  section.emplace("vanishing-check");
  const Fr l0_x = dom.EvaluateLagrange(0, x);
  const Fr llast_x = dom.EvaluateLagrange(n - 1, x);
  const Fr lactive_x = Fr::One() - llast_x;

  Fr numerator = Fr::Zero();
  Fr y_pow = Fr::One();
  auto add_constraint = [&](const Fr& v) {
    numerator += v * y_pow;
    y_pow *= y;
  };

  for (const Gate& gate : cs.gates()) {
    add_constraint(gate.poly.Evaluate(resolve));
  }
  for (size_t l = 0; l < num_lookups; ++l) {
    const LookupArgument& lk = cs.lookups()[l];
    Fr f = Fr::Zero();
    Fr t = Fr::Zero();
    Fr theta_j = Fr::One();
    for (size_t j = 0; j < lk.inputs.size(); ++j) {
      f += lk.inputs[j].Evaluate(resolve) * theta_j;
      t += resolve(ColumnQuery{lk.table[j], 0}) * theta_j;
      theta_j *= theta;
    }
    const Fr bf = beta + f;
    const Fr bt = beta + t;
    add_constraint(bf * bt * h_evals[l] - (bt - m_evals[l] * bf));
    add_constraint(l0_x * s_evals[l]);
    add_constraint(lactive_x * (s_next_evals[l] - s_evals[l] - h_evals[l]));
    add_constraint(llast_x * (s_evals[l] + h_evals[l]));
  }
  if (num_chunks > 0) {
    const Fr delta = FrDelta();
    std::vector<Fr> delta_pow(perm_cols.size());
    delta_pow[0] = Fr::One();
    for (size_t i = 1; i < perm_cols.size(); ++i) {
      delta_pow[i] = delta_pow[i - 1] * delta;
    }
    add_constraint(l0_x * (z_evals[0] - Fr::One()));
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t col_begin = c * static_cast<size_t>(chunk_size);
      const size_t col_end = std::min(perm_cols.size(), col_begin + chunk_size);
      Fr num = Fr::One();
      Fr den = Fr::One();
      for (size_t i = col_begin; i < col_end; ++i) {
        const Fr f = resolve(ColumnQuery{perm_cols[i], 0});
        num *= f + beta * delta_pow[i] * x + gamma;
        den *= f + beta * sigma_evals[i] + gamma;
      }
      const size_t next = (c + 1) % num_chunks;
      add_constraint(lactive_x * (z_next_evals[c] * den - z_evals[c] * num));
      add_constraint(llast_x * (z_next_evals[next] * den - z_evals[c] * num));
    }
  }

  // Quotient identity: N(x) == q(x) * (x^n - 1) with q split into chunks.
  Fr q_at_x = Fr::Zero();
  const Fr x_n = x.Pow(U256::FromU64(n));
  Fr shift = Fr::One();
  for (size_t i = 0; i < ext_factor; ++i) {
    q_at_x += q_evals[i] * shift;
    shift *= x_n;
  }
  if (!(numerator == q_at_x * dom.EvaluateVanishing(x))) {
    return VerifyResult::Rejected(
        VerifyStage::kVanishingCheck,
        VerifyFailedError("quotient identity N(x) != q(x)·(x^n - 1) at the challenge point "
                          "(some gate, lookup, or permutation constraint is unsatisfied)"));
  }

  // --- PCS opening checks, grouped by rotation as the prover did. ---
  section.emplace("pcs-openings");
  std::set<int32_t> rotations;
  for (const OpenEntry& e : entries) {
    rotations.insert(e.rotation);
  }
  std::vector<PcsOpeningBatch> batches;
  for (int32_t rot : rotations) {
    PcsOpeningBatch& batch = batches.emplace_back();
    for (const OpenEntry& e : entries) {
      if (e.rotation == rot) {
        batch.commitments.push_back(*e.commitment);
        batch.evals.push_back(e.eval);
      }
    }
    batch.point = rot_point(rot);
    batch.what = "opening at rotation " + std::to_string(rot);
  }
  if (Status s = pcs.VerifyOpenings(batches, &transcript, proof, &offset); !s.ok()) {
    return VerifyResult::Rejected(VerifyStage::kPcsOpening, std::move(s));
  }
  if (Status s = ProofExpectEnd(proof, offset); !s.ok()) {
    return VerifyResult::Rejected(VerifyStage::kTrailingBytes, std::move(s));
  }
  return VerifyResult::Accepted();
}

}  // namespace zkml
