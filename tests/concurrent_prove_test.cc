// Concurrent proving correctness: two proofs running simultaneously on the
// shared global thread pool must not bleed into each other. Per-activity
// KernelSinks (each CreateProof installs its own) make the per-stage FFT/MSM
// counters a sensitive tracer: any task attributed to the wrong activity
// shows up as a counter delta against the solo run of the same proof.
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/ec/g1.h"
#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/pcs/kzg.h"
#include "src/zkml/plan.h"

namespace zkml {
namespace {

ZkmlOptions FastOptions(PcsKind backend) {
  ZkmlOptions options;
  options.backend = backend;
  options.optimizer.min_columns = 10;
  options.optimizer.max_columns = 26;
  options.optimizer.max_k = 14;
  return options;
}

// Two threads commit through one cold Pcs at once, so both race to build
// its Lagrange basis and its monomial and Lagrange fixed-base tables. Each
// builds outside the cache lock and a racing copy is dropped: the
// commitments match a solo Pcs's, and one table per (basis, size) is kept.
// The suite name puts it in the tsan CI configuration's filter.
TEST(ConcurrentPcsTest, ColdPcsKeepsOneTablePerBasis) {
  const auto setup = std::make_shared<KzgSetup>(KzgSetup::Create(512, 21));
  Rng rng(22);
  std::vector<std::vector<Fr>> vecs(8, std::vector<Fr>(512));
  for (std::vector<Fr>& v : vecs) {
    for (Fr& e : v) {
      e = Fr::Random(rng);
    }
  }
  const KzgPcs solo(setup);
  const std::vector<PcsCommitment> want_lagrange = solo.CommitLagrange(PolyPointers(vecs));
  const std::vector<PcsCommitment> want_monomial = solo.Commit(PolyPointers(vecs));

  const obs::Counter& tables =
      obs::MetricsRegistry::Global().counter("pcs.fixed_base_table_builds");
  const uint64_t before = tables.Value();
  const KzgPcs cold(setup);
  std::vector<PcsCommitment> lagrange[2], monomial[2];
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([&, t] {
      lagrange[t] = cold.CommitLagrange(PolyPointers(vecs));
      monomial[t] = cold.Commit(PolyPointers(vecs));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 0; t < 2; ++t) {
    EXPECT_TRUE(lagrange[t] == want_lagrange) << "thread " << t;
    EXPECT_TRUE(monomial[t] == want_monomial) << "thread " << t;
  }
  EXPECT_EQ(tables.Value() - before, 2u);
}

// One cold start: a fresh KZG setup (its powers come from the generator's
// fixed-base table), a fresh backend and its first Lagrange commit, which
// builds the 2^9 Lagrange basis from the same table.
PcsCommitment ColdKzgLagrangeCommit(const std::vector<Fr>& evals) {
  const KzgPcs pcs(std::make_shared<KzgSetup>(KzgSetup::Create(512, 21)));
  return pcs.CommitLagrange(evals);
}

std::vector<std::vector<Fr>> RandomVectors(uint64_t seed, size_t count, size_t n) {
  Rng rng(seed);
  std::vector<std::vector<Fr>> vecs(count, std::vector<Fr>(n));
  for (std::vector<Fr>& v : vecs) {
    for (Fr& e : v) {
      e = Fr::Random(rng);
    }
  }
  return vecs;
}

// After the cold starts: the generator's table was built once in this
// process, and every commitment equals a solo call's on a warm table.
void ExpectColdStartsMatchWarm(const std::vector<std::vector<Fr>>& vecs,
                               const std::vector<PcsCommitment>& cold) {
  EXPECT_EQ(internal::GeneratorTableBuilds(), 1u);
  const KzgPcs warm(std::make_shared<KzgSetup>(KzgSetup::Create(512, 21)));
  for (size_t i = 0; i < vecs.size(); ++i) {
    EXPECT_TRUE(cold[i] == warm.CommitLagrange(vecs[i])) << "cold start " << i;
  }
}

// Eight cold starts as sibling tasks of one TaskGroup. In a fresh process
// they race to build the generator's table, whose builder runs
// ParallelForHeavy inside a static-init guard while other pool workers block
// on that guard: the builder must finish its own chunks rather than wait on
// the blocked workers. The suite name puts it in the tsan CI configuration.
TEST(ConcurrentPcsTest, ColdKzgStartsInOneTaskGroup) {
  const std::vector<std::vector<Fr>> vecs = RandomVectors(24, 8, 512);
  std::vector<PcsCommitment> cold(vecs.size());
  {
    TaskGroup group;
    for (size_t i = 0; i < vecs.size(); ++i) {
      group.Submit([&, i] { cold[i] = ColdKzgLagrangeCommit(vecs[i]); });
    }
  }
  ExpectColdStartsMatchWarm(vecs, cold);
}

// The same eight cold starts, two each on four threads outside the pool.
TEST(ConcurrentPcsTest, ColdKzgStartsOnFourThreads) {
  const std::vector<std::vector<Fr>> vecs = RandomVectors(25, 8, 512);
  std::vector<PcsCommitment> cold(vecs.size());
  std::thread threads[4];
  for (size_t t = 0; t < 4; ++t) {
    threads[t] = std::thread([&, t] {
      for (size_t i = 2 * t; i < 2 * t + 2; ++i) {
        cold[i] = ColdKzgLagrangeCommit(vecs[i]);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ExpectColdStartsMatchWarm(vecs, cold);
}

TEST(ConcurrentProveTest, TwoBackendsProvedSimultaneously) {
  const Model model = MakeMnistCnn();
  const CompiledModel kzg = CompileModel(model, FastOptions(PcsKind::kKzg));
  const CompiledModel ipa = CompileModel(model, FastOptions(PcsKind::kIpa));
  const Tensor<int64_t> input_a = QuantizeTensor(SyntheticInput(model, 31), model.quant);
  const Tensor<int64_t> input_b = QuantizeTensor(SyntheticInput(model, 32), model.quant);

  // Solo baselines: proving is deterministic, so the per-stage kernel
  // counters of a (model, backend, input) triple are exact references.
  const ZkmlProof solo_kzg = Prove(kzg, input_a);
  const ZkmlProof solo_ipa = Prove(ipa, input_b);
  ASSERT_FALSE(solo_kzg.prover_metrics.stages.empty());
  ASSERT_FALSE(solo_ipa.prover_metrics.stages.empty());

  // The same two proofs, now racing each other on the shared pool.
  ZkmlProof conc_kzg, conc_ipa;
  std::thread t_kzg([&] { conc_kzg = Prove(kzg, input_a); });
  std::thread t_ipa([&] { conc_ipa = Prove(ipa, input_b); });
  t_kzg.join();
  t_ipa.join();

  // Both proofs verify and are byte-identical to their solo runs: contention
  // changed scheduling, not output.
  EXPECT_TRUE(Verify(kzg, conc_kzg));
  EXPECT_TRUE(Verify(ipa, conc_ipa));
  EXPECT_EQ(conc_kzg.bytes, solo_kzg.bytes);
  EXPECT_EQ(conc_ipa.bytes, solo_ipa.bytes);

  // Stage-by-stage kernel attribution: each concurrent proof reports exactly
  // the kernel work of its own activity. The two backends have different
  // kernel profiles, so cross-attribution cannot cancel out.
  ASSERT_EQ(conc_kzg.prover_metrics.stages.size(), solo_kzg.prover_metrics.stages.size());
  for (size_t i = 0; i < solo_kzg.prover_metrics.stages.size(); ++i) {
    const auto& solo = solo_kzg.prover_metrics.stages[i];
    const auto& conc = conc_kzg.prover_metrics.stages[i];
    EXPECT_EQ(conc.name, solo.name);
    EXPECT_TRUE(conc.kernels == solo.kernels)
        << "kzg stage '" << solo.name << "' kernel counters drifted under contention: solo fft="
        << solo.kernels.fft_calls << " msm=" << solo.kernels.msm_calls
        << ", concurrent fft=" << conc.kernels.fft_calls << " msm=" << conc.kernels.msm_calls;
  }
  ASSERT_EQ(conc_ipa.prover_metrics.stages.size(), solo_ipa.prover_metrics.stages.size());
  for (size_t i = 0; i < solo_ipa.prover_metrics.stages.size(); ++i) {
    const auto& solo = solo_ipa.prover_metrics.stages[i];
    const auto& conc = conc_ipa.prover_metrics.stages[i];
    EXPECT_EQ(conc.name, solo.name);
    EXPECT_TRUE(conc.kernels == solo.kernels)
        << "ipa stage '" << solo.name << "' kernel counters drifted under contention";
  }
}

TEST(ConcurrentProveTest, RunReportStageDeltasIndependentUnderContention) {
  const Model model = MakeMnistCnn();
  const StatusOr<CompiledPlan> compiled = CompilePlan(model, {}, FastOptions(PcsKind::kKzg));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::vector<Tensor<int64_t>> input = {
      QuantizeTensor(SyntheticInput(model, 33), model.quant)};

  const StatusOr<PlanProof> solo = ProvePlan(*compiled, input);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();

  // Four identical proofs at once: every one must report the solo run's
  // per-stage kernel counters, and the run report built from each must agree
  // with its own metrics (not an aggregate across activities).
  constexpr int kProvers = 4;
  std::optional<StatusOr<PlanProof>> proofs[kProvers];
  std::vector<std::thread> threads;
  for (int p = 0; p < kProvers; ++p) {
    threads.emplace_back([&, p] { proofs[p].emplace(ProvePlan(*compiled, input)); });
  }
  for (auto& t : threads) t.join();

  const std::vector<ProverStageMetrics>& solo_stages = solo->prover_metrics.stages;
  for (int p = 0; p < kProvers; ++p) {
    ASSERT_TRUE(proofs[p]->ok()) << proofs[p]->status().ToString();
    const PlanProof& proof = **proofs[p];
    EXPECT_EQ(proof.artifact.proofs, solo->artifact.proofs) << "prover " << p;
    ASSERT_EQ(proof.prover_metrics.stages.size(), solo_stages.size());
    KernelCounters total;
    for (size_t i = 0; i < solo_stages.size(); ++i) {
      EXPECT_TRUE(proof.prover_metrics.stages[i].kernels == solo_stages[i].kernels)
          << "prover " << p << " stage " << solo_stages[i].name;
      total = total + proof.prover_metrics.stages[i].kernels;
    }
    // The run report's aggregate kernels equal the sum of its own stages.
    const obs::RunReport report = BuildRunReport(*compiled, proof);
    EXPECT_TRUE(report.kernels == total) << "prover " << p;
    ASSERT_EQ(report.stages.size(), proof.prover_metrics.stages.size());
    for (size_t i = 0; i < report.stages.size(); ++i) {
      EXPECT_TRUE(report.stages[i].kernels == proof.prover_metrics.stages[i].kernels);
    }
  }
}

}  // namespace
}  // namespace zkml
