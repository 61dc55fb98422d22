// Tests for the compiled quotient engine and Lagrange-basis commitments:
// golden proof bytes recorded from the legacy prover (iFFT-per-commit,
// AST-walk quotient) must be reproduced exactly, the expression compiler must
// agree with naive AST evaluation on random expressions, CommitLagrange must
// equal Commit-after-interpolation for both PCS backends, and the prover's
// commit rounds must run zero scalar FFTs.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/buffer_pool.h"
#include "src/base/rng.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"
#include "src/plonk/evaluator.h"
#include "src/plonk/keygen.h"
#include "src/plonk/mock_prover.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"
#include "src/poly/domain.h"
#include "src/transcript/sha256.h"
#include "tests/golden_circuit.h"

namespace zkml {
namespace {

// Recorded from the pre-rewrite prover (see golden_circuit.h). A mismatch
// means the new commit/quotient path changed proof bytes — a protocol break,
// not a refactor.
constexpr char kGoldenKzgSha256[] =
    "1f3b7d5a9d52631a8c1aea495efa16becd481d01a0cd441f51e332d9c550cea7";
constexpr size_t kGoldenKzgSize = 1683;
constexpr char kGoldenIpaSha256[] =
    "169015f03ebb91748f792669b720dd7594d61b998ccb5c7e86a64210f24e12cd";
constexpr size_t kGoldenIpaSize = 2670;

std::string HexDigest(const std::vector<uint8_t>& bytes) {
  const auto digest = Sha256::Hash(bytes.data(), bytes.size());
  std::string out;
  char buf[3];
  for (uint8_t b : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::shared_ptr<Pcs> MakePcs(PcsKind kind, size_t max_len) {
  if (kind == PcsKind::kKzg) {
    return std::make_shared<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(max_len, 11)));
  }
  return std::make_shared<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(max_len, 11)));
}

struct GoldenProofResult {
  std::vector<uint8_t> proof;
  ProverMetrics metrics;
  bool verified = false;
};

GoldenProofResult ProveGolden(PcsKind kind) {
  GoldenCircuit circuit;
  Assignment asn = circuit.MakeAssignment();
  MockProver mp(&circuit.cs, &asn);
  auto failures = mp.Verify();
  EXPECT_TRUE(failures.empty()) << (failures.empty() ? "" : failures[0].description);

  std::shared_ptr<Pcs> pcs = MakePcs(kind, GoldenCircuit::kN);
  ProvingKey pk = Keygen(circuit.cs, asn, *pcs, GoldenCircuit::kK);
  GoldenProofResult out;
  out.proof = CreateProof(pk, *pcs, asn, &out.metrics);
  const std::vector<std::vector<Fr>> instance = {{asn.instance()[0][0]}};
  out.verified = VerifyProof(pk.vk, *pcs, instance, out.proof).ok();
  return out;
}

TEST(GoldenProofTest, KzgBytesUnchanged) {
  const GoldenProofResult r = ProveGolden(PcsKind::kKzg);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.proof.size(), kGoldenKzgSize);
  EXPECT_EQ(HexDigest(r.proof), kGoldenKzgSha256);
}

TEST(GoldenProofTest, IpaBytesUnchanged) {
  const GoldenProofResult r = ProveGolden(PcsKind::kIpa);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.proof.size(), kGoldenIpaSize);
  EXPECT_EQ(HexDigest(r.proof), kGoldenIpaSha256);
}

// The per-stage kernel counters prove the claim in the PR title: committing
// from evaluation form leaves zero scalar (i)FFTs in the commit rounds; all
// interpolation happens inside the quotient round.
TEST(GoldenProofTest, CommitRoundsRunZeroScalarFfts) {
  const GoldenProofResult r = ProveGolden(PcsKind::kKzg);
  ASSERT_TRUE(r.verified);
  bool saw_quotient = false;
  for (const ProverStageMetrics& s : r.metrics.stages) {
    if (s.name == "advice-commit" || s.name == "lookup-mult" ||
        s.name == "lookup-perm-commit") {
      EXPECT_EQ(s.kernels.fft_calls, 0u) << "stage " << s.name << " ran scalar FFTs";
      EXPECT_GT(s.kernels.msm_calls, 0u) << "stage " << s.name << " committed nothing";
    }
    if (s.name == "quotient") {
      saw_quotient = true;
      EXPECT_GT(s.kernels.fft_calls, 0u);
    }
  }
  EXPECT_TRUE(saw_quotient);
}

// --- Expression compiler equivalence -----------------------------------

Expression RandomExpr(Rng& rng, int depth, const std::vector<Column>& cols) {
  const uint64_t pick = rng.NextBelow(depth == 0 ? 2 : 6);
  switch (pick) {
    case 0:
      // Small constants make zero/one folding paths reachable.
      return Expression::Constant(Fr::FromU64(rng.NextBelow(4)));
    case 1: {
      const Column col = cols[rng.NextBelow(cols.size())];
      const int32_t rot = static_cast<int32_t>(rng.NextBelow(5)) - 2;
      return Expression::Query(col, rot);
    }
    case 2:
      return RandomExpr(rng, depth - 1, cols) + RandomExpr(rng, depth - 1, cols);
    case 3:
      return RandomExpr(rng, depth - 1, cols) - RandomExpr(rng, depth - 1, cols);
    case 4:
      return RandomExpr(rng, depth - 1, cols) * RandomExpr(rng, depth - 1, cols);
    default:
      return RandomExpr(rng, depth - 1, cols).Scale(Fr::FromU64(rng.NextU64()));
  }
}

TEST(GraphEvaluatorTest, CompiledPlanMatchesNaiveEvaluate) {
  Rng rng(2026);
  constexpr size_t kSize = 64;
  constexpr size_t kRotScale = 4;

  std::vector<std::vector<Fr>> fixed(3), advice(3), instance(2);
  std::vector<Column> cols;
  for (uint32_t i = 0; i < 3; ++i) {
    cols.push_back(Column{ColumnType::kFixed, i});
    cols.push_back(Column{ColumnType::kAdvice, i});
  }
  cols.push_back(Column{ColumnType::kInstance, 0});
  cols.push_back(Column{ColumnType::kInstance, 1});
  auto fill = [&](std::vector<std::vector<Fr>>& v) {
    for (auto& col : v) {
      col.resize(kSize);
      for (Fr& x : col) {
        x = Fr::FromU64(rng.NextU64());
      }
    }
  };
  fill(fixed);
  fill(advice);
  fill(instance);

  auto naive_resolve = [&](const ColumnQuery& q, size_t row) -> Fr {
    int64_t idx = static_cast<int64_t>(row) +
                  static_cast<int64_t>(q.rotation) * static_cast<int64_t>(kRotScale);
    idx %= static_cast<int64_t>(kSize);
    if (idx < 0) {
      idx += static_cast<int64_t>(kSize);
    }
    const size_t r = static_cast<size_t>(idx);
    switch (q.column.type) {
      case ColumnType::kFixed:
        return fixed[q.column.index][r];
      case ColumnType::kAdvice:
        return advice[q.column.index][r];
      case ColumnType::kInstance:
        return instance[q.column.index][r];
    }
    return Fr::Zero();
  };

  for (int trial = 0; trial < 50; ++trial) {
    GraphEvaluator graph;
    std::vector<Expression> exprs;
    std::vector<ValueSource> roots;
    const int num_exprs = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < num_exprs; ++e) {
      exprs.push_back(RandomExpr(rng, 4, cols));
      roots.push_back(graph.AddExpression(exprs.back()));
    }

    std::vector<const std::vector<Fr>*> fp, ap, ip;
    for (const auto& c : fixed) fp.push_back(&c);
    for (const auto& c : advice) ap.push_back(&c);
    for (const auto& c : instance) ip.push_back(&c);
    GraphEvaluator::Tables t;
    t.fixed = fp.data();
    t.advice = ap.data();
    t.instance = ip.data();
    t.size = kSize;
    const std::vector<size_t> offsets = graph.RotationOffsets(kSize, kRotScale);
    std::vector<Fr> scratch(graph.num_intermediates());

    for (size_t j = 0; j < kSize; ++j) {
      graph.EvaluateRow(t, offsets.data(), j, scratch.data());
      for (int e = 0; e < num_exprs; ++e) {
        const Fr expect =
            exprs[e].Evaluate([&](const ColumnQuery& q) { return naive_resolve(q, j); });
        const Fr got = graph.Value(roots[e], t, offsets.data(), j, scratch.data());
        ASSERT_TRUE(got == expect) << "trial " << trial << " expr " << e << " row " << j;
      }
    }

    // Block-mode execution (what the prover runs) must agree row for row,
    // including ragged final blocks and blocks whose rotations wrap.
    constexpr size_t kStride = 24;  // not a divisor of kSize: exercises ragged tail
    std::vector<Fr> block_scratch(graph.num_intermediates() * kStride);
    for (size_t j0 = 0; j0 < kSize; j0 += kStride) {
      const size_t cnt = std::min(kStride, kSize - j0);
      graph.EvaluateBlock(t, offsets.data(), j0, cnt, kStride, block_scratch.data());
      for (size_t r = 0; r < cnt; ++r) {
        for (int e = 0; e < num_exprs; ++e) {
          const Fr expect = exprs[e].Evaluate(
              [&](const ColumnQuery& q) { return naive_resolve(q, j0 + r); });
          const Fr got = graph.BlockValue(roots[e], t, offsets.data(), j0, r, kStride,
                                          block_scratch.data());
          ASSERT_TRUE(got == expect)
              << "block trial " << trial << " expr " << e << " row " << (j0 + r);
        }
      }
    }
  }
}

TEST(GraphEvaluatorTest, CommonSubexpressionsDeduplicate) {
  GraphEvaluator graph;
  const Expression ab =
      Expression::Query(Column{ColumnType::kAdvice, 0}) * Expression::Query(Column{ColumnType::kAdvice, 1});
  const ValueSource first = graph.AddExpression(ab);
  const size_t plan_size = graph.num_intermediates();
  // Re-adding an identical expression must not grow the plan.
  const ValueSource second = graph.AddExpression(ab);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(graph.num_intermediates(), plan_size);
  // A sum reusing the product only adds the one new calculation.
  graph.AddExpression(ab + Expression::Constant(Fr::FromU64(7)));
  EXPECT_EQ(graph.num_intermediates(), plan_size + 1);
}

// --- Buffer pool ---------------------------------------------------------

TEST(VectorPoolTest, ReusesReleasedBuffers) {
  VectorPool<Fr> pool;
  std::vector<Fr> v = pool.Acquire(1024);
  Fr* data = v.data();
  pool.Release(std::move(v));
  std::vector<Fr> w = pool.Acquire(512);  // best fit: reuses the 1024 buffer
  EXPECT_EQ(w.data(), data);
  EXPECT_EQ(w.size(), 512u);
  const VectorPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(VectorPoolTest, RetentionCapDropsBuffers) {
  VectorPool<Fr> pool(/*max_retained_bytes=*/sizeof(Fr) * 100);
  pool.Release(std::vector<Fr>(64));
  pool.Release(std::vector<Fr>(64));  // would exceed the cap: dropped
  const VectorPoolStats s = pool.stats();
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_LE(s.retained_bytes, sizeof(Fr) * 100);
}

TEST(VectorPoolTest, PooledVectorReturnsOnDestruction) {
  VectorPool<Fr> pool;
  {
    PooledVector<Fr> p = AcquirePooled(pool, 256);
    EXPECT_EQ(p->size(), 256u);
  }
  EXPECT_EQ(pool.stats().retained_bytes, sizeof(Fr) * 256);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 1u);
}

}  // namespace
}  // namespace zkml
