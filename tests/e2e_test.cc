// Full-stack end-to-end: model -> optimizer -> circuit -> proof -> verify,
// under both commitment backends.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/base/kernel_stats.h"
#include "src/base/thread_pool.h"
#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/zkml/zkml.h"

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

class E2eTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(E2eTest, MnistProveVerify) {
  const Model model = MakeMnistCnn();
  const CompiledModel compiled = CompileModel(model, FastOptions(GetParam()));

  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 11), model.quant);
  const ZkmlProof proof = Prove(compiled, input);
  EXPECT_FALSE(proof.bytes.empty());
  EXPECT_TRUE(Verify(compiled, proof));

  // The proven output equals the quantized reference execution.
  const Tensor<int64_t> expected = RunQuantized(model, input);
  EXPECT_EQ(proof.output_q.ToVector(), expected.ToVector());

  // Optimizer honesty check: the cost model's prediction is published next to
  // the measured prove time so estimator drift is visible in telemetry.
  const double predicted =
      obs::MetricsRegistry::Global().gauge("optimizer.predicted_prove_seconds").Value();
  const double measured =
      obs::MetricsRegistry::Global().gauge("prover.measured_prove_seconds").Value();
  EXPECT_GT(predicted, 0.0);
  EXPECT_GT(measured, 0.0);
  EXPECT_DOUBLE_EQ(predicted, compiled.predicted_cost.total_seconds);
  EXPECT_DOUBLE_EQ(measured, proof.prove_seconds);
  std::printf("cost-model honesty: predicted %.3fs, measured %.3fs (ratio %.2fx)\n", predicted,
              measured, predicted / measured);
}

TEST_P(E2eTest, TamperedStatementRejected) {
  const Model model = MakeMnistCnn();
  const CompiledModel compiled = CompileModel(model, FastOptions(GetParam()));
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 12), model.quant);
  ZkmlProof proof = Prove(compiled, input);
  ASSERT_TRUE(Verify(compiled, proof));

  // Claiming a different output must fail.
  ZkmlProof bad_output = proof;
  bad_output.instance.back() += Fr::One();
  EXPECT_FALSE(Verify(compiled, bad_output));

  // Claiming a different input must fail.
  ZkmlProof bad_input = proof;
  bad_input.instance[0] += Fr::One();
  EXPECT_FALSE(Verify(compiled, bad_input));

  // A flipped proof byte must fail.
  ZkmlProof corrupt = proof;
  corrupt.bytes[corrupt.bytes.size() / 3] ^= 0x04;
  EXPECT_FALSE(Verify(compiled, corrupt));
}

TEST_P(E2eTest, DifferentInputsDifferentProofsSameKeys) {
  const Model model = MakeDlrm();
  const CompiledModel compiled = CompileModel(model, FastOptions(GetParam()));
  const Tensor<int64_t> in1 = QuantizeTensor(SyntheticInput(model, 21), model.quant);
  const Tensor<int64_t> in2 = QuantizeTensor(SyntheticInput(model, 22), model.quant);
  const ZkmlProof p1 = Prove(compiled, in1);
  const ZkmlProof p2 = Prove(compiled, in2);
  EXPECT_TRUE(Verify(compiled, p1));
  EXPECT_TRUE(Verify(compiled, p2));
  EXPECT_NE(p1.instance, p2.instance);
  // Swapping statements must fail.
  ZkmlProof mixed = p1;
  mixed.instance = p2.instance;
  EXPECT_FALSE(Verify(compiled, mixed));
}

INSTANTIATE_TEST_SUITE_P(Backends, E2eTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

TEST(E2eTest, ExplicitLayoutRoundTrip) {
  const Model model = MakeMnistCnn();
  PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 14);
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  const CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 31), model.quant);
  const ZkmlProof proof = Prove(compiled, input);
  EXPECT_TRUE(Verify(compiled, proof));
}

// The prover commits each round's vectors as one batch; that must not change
// how many MSMs a round runs (one per committed vector) on mnist's 26 x 2^9
// layout: 26 advice, 8 lookup m, 8 h + 8 s + 14 permutation z, 4 quotient
// chunks, and one opening witness per rotation.
TEST(E2eTest, MnistCommitRoundsKeepTheirMsmCounts) {
  const Model model = MakeMnistCnn();
  // The optimizer's choice for mnist: bit-decomposition ReLU, 26 columns.
  GadgetSet gadgets = GadgetSetForModel(model);
  gadgets.relu_lookup = false;
  gadgets.relu_bits = true;
  const PhysicalLayout layout = SimulateLayout(model, gadgets, 26);
  ASSERT_EQ(layout.k, 9);
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  const CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const ZkmlProof proof = Prove(compiled, QuantizeTensor(SyntheticInput(model, 5), model.quant));
  ASSERT_TRUE(Verify(compiled, proof));

  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"advice-commit", 26}, {"lookup-mult", 8}, {"lookup-perm-commit", 30},
      {"quotient", 4},       {"evals", 0},       {"openings", 2}};
  const std::vector<ProverStageMetrics>& stages = proof.prover_metrics.stages;
  ASSERT_EQ(stages.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(stages[i].name, want[i].first);
    EXPECT_EQ(stages[i].kernels.msm_calls, want[i].second) << stages[i].name;
  }
}

// The verifier folds every KZG opening claim of a proof (one per rotation)
// into a single MSM: verifying the mnist proof runs exactly one MSM and one
// simulated pairing check.
TEST(E2eTest, MnistVerifyRunsOneMsm) {
  const Model model = MakeMnistCnn();
  GadgetSet gadgets = GadgetSetForModel(model);
  gadgets.relu_lookup = false;
  gadgets.relu_bits = true;
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  const CompiledModel compiled =
      CompileModelWithLayout(model, SimulateLayout(model, gadgets, 26), options);
  const ZkmlProof proof = Prove(compiled, QuantizeTensor(SyntheticInput(model, 6), model.quant));

  const obs::Counter& pairings =
      obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks");
  const uint64_t before = pairings.Value();
  KernelSink sink;
  {
    kernelstats::ScopedSink scope(&sink);
    ASSERT_TRUE(Verify(compiled, proof));
  }
  EXPECT_EQ(sink.Capture().msm_calls, 1u);
  EXPECT_EQ(pairings.Value() - before, 1u);
}

// Keygen takes its domain from the Pcs, which builds the Lagrange basis with
// it on the calling thread, before any commit batch fans out: a cold setup
// builds the basis exactly once, however many pool threads would otherwise
// race to build it. ConcurrentPcsTest.ColdBatchBuildsTheBasisOnce checks
// the same of a lone batched commit.
TEST(E2eTest, KeygenBuildsTheLagrangeBasisOnce) {
  if (ThreadPool::Global().num_threads() < 2) {
    GTEST_SKIP() << "needs a pool of two or more threads";
  }
  const obs::Counter& builds =
      obs::MetricsRegistry::Global().counter("pcs.lagrange_basis_builds");
  const uint64_t before = builds.Value();
  const CompiledModel compiled = CompileModel(MakeMnistCnn(), FastOptions(PcsKind::kKzg));
  EXPECT_EQ(builds.Value() - before, 1u);
}

}  // namespace
}  // namespace zkml
