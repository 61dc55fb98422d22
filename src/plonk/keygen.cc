#include "src/plonk/keygen.h"

#include <map>
#include <numeric>
#include <optional>

#include "src/base/check.h"
#include "src/base/kernel_stats.h"
#include "src/base/thread_pool.h"
#include "src/obs/trace.h"

namespace zkml {
namespace {

// Union-find over flat cell indices, with cycle "next" pointers: the standard
// PLONK permutation construction. Copying two cells swaps their cycle
// successors, merging the cycles iff they were distinct (guarded by the
// union-find so a duplicate copy does not split a cycle).
class PermutationBuilder {
 public:
  PermutationBuilder(size_t num_columns, size_t num_rows)
      : num_rows_(num_rows), parent_(num_columns * num_rows), next_(num_columns * num_rows) {
    std::iota(parent_.begin(), parent_.end(), 0);
    std::iota(next_.begin(), next_.end(), 0);
  }

  void Join(size_t col_a, size_t row_a, size_t col_b, size_t row_b) {
    const size_t a = col_a * num_rows_ + row_a;
    const size_t b = col_b * num_rows_ + row_b;
    const size_t ra = Find(a);
    const size_t rb = Find(b);
    if (ra == rb) {
      return;
    }
    parent_[ra] = rb;
    std::swap(next_[a], next_[b]);
  }

  // Cycle successor of (col, row) as a (col, row) pair.
  std::pair<size_t, size_t> Next(size_t col, size_t row) const {
    const size_t v = next_[col * num_rows_ + row];
    return {v / num_rows_, v % num_rows_};
  }

 private:
  size_t Find(size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  size_t num_rows_;
  std::vector<size_t> parent_;
  std::vector<size_t> next_;
};

}  // namespace

ProvingKey Keygen(const ConstraintSystem& cs, const Assignment& assignment, const Pcs& pcs,
                  int k) {
  // Keygen is its own kernel-attribution activity when none is installed
  // (mirrors CreateProof), so concurrent keygens don't pollute each other's
  // deltas.
  KernelSink local_sink;
  std::optional<kernelstats::ScopedSink> sink_scope;
  if (kernelstats::CurrentSink() == nullptr) {
    sink_scope.emplace(&local_sink);
  }
  obs::Span keygen_span("keygen");
  std::optional<obs::Span> section;
  section.emplace("keygen-fixed-commit");

  const size_t n = static_cast<size_t>(1) << k;
  ZKML_CHECK_MSG(assignment.num_rows() == n, "assignment rows must equal 2^k");
  ZKML_CHECK_MSG(pcs.size() == n, "commitment setup size must equal 2^k");

  ProvingKey pk;
  pk.vk.cs = cs;
  pk.vk.k = k;
  pk.domain = pcs.domain();
  pk.vk.perm_columns = cs.PermutationColumns();

  // Fixed columns, committed from value form like every column; the first
  // commit warms the PCS's Lagrange-basis cache for the prover's rounds.
  pk.fixed_values = assignment.fixed();
  pk.fixed_coeffs.resize(pk.fixed_values.size());
  {
    TaskGroup group;
    for (size_t i = 0; i < pk.fixed_values.size(); ++i) {
      group.Submit([&, i] { pk.fixed_coeffs[i] = pk.domain->IfftToCoeffs(pk.fixed_values[i]); });
    }
  }
  pk.vk.fixed_commitments = pcs.CommitLagrange(PolyPointers(pk.fixed_values));

  // Permutation sigmas.
  section.emplace("keygen-sigmas");
  const std::vector<Column>& perm_cols = pk.vk.perm_columns;
  std::map<Column, size_t> col_index;
  for (size_t i = 0; i < perm_cols.size(); ++i) {
    col_index[perm_cols[i]] = i;
  }
  PermutationBuilder perm(perm_cols.size(), n);
  for (const auto& [a, b] : assignment.copies()) {
    auto ita = col_index.find(a.column);
    auto itb = col_index.find(b.column);
    ZKML_CHECK_MSG(ita != col_index.end() && itb != col_index.end(),
                   "copy constraint on column without equality enabled");
    perm.Join(ita->second, a.row, itb->second, b.row);
  }

  const Fr delta = FrDelta();
  std::vector<Fr> delta_pow(perm_cols.size());
  if (!perm_cols.empty()) {
    delta_pow[0] = Fr::One();
    for (size_t i = 1; i < perm_cols.size(); ++i) {
      delta_pow[i] = delta_pow[i - 1] * delta;
    }
  }

  pk.sigma_values.assign(perm_cols.size(), std::vector<Fr>(n));
  pk.sigma_coeffs.resize(perm_cols.size());
  {
    TaskGroup group;
    for (size_t i = 0; i < perm_cols.size(); ++i) {
      group.Submit([&, i] {
        for (size_t r = 0; r < n; ++r) {
          const auto [ci, ri] = perm.Next(i, r);
          pk.sigma_values[i][r] = delta_pow[ci] * pk.domain->element(ri);
        }
        pk.sigma_coeffs[i] = pk.domain->IfftToCoeffs(pk.sigma_values[i]);
      });
    }
  }
  pk.vk.sigma_commitments = pcs.CommitLagrange(PolyPointers(pk.sigma_values));

  // l_0 and l_{n-1}: interpolations of the indicator vectors.
  section.emplace("keygen-lagrange");
  std::vector<Fr> e0(n, Fr::Zero());
  e0[0] = Fr::One();
  pk.l0_coeffs = pk.domain->IfftToCoeffs(e0);
  std::vector<Fr> elast(n, Fr::Zero());
  elast[n - 1] = Fr::One();
  pk.llast_coeffs = pk.domain->IfftToCoeffs(elast);

  // Compile the constraint expressions into the quotient engine's flat
  // calculation plans (once per key, reused across proofs).
  section.emplace("keygen-compile-quotient");
  pk.quotient = std::make_shared<const QuotientEvaluator>(cs, pk.vk.perm_columns);

  return pk;
}

}  // namespace zkml
