// Compiler and optimizer tests: row-exact simulation, Algorithm 1 behavior,
// cost model sanity.
#include <gtest/gtest.h>

#include <string>

#include "src/compiler/compiler.h"
#include "src/compiler/partition.h"
#include "src/optimizer/optimizer.h"
#include "src/model/zoo.h"
#include "src/plonk/mock_prover.h"

namespace zkml {
namespace {

TEST(CompilerTest, SimulationIsRowExact) {
  const Model model = MakeMnistCnn();
  const GadgetSet gs = GadgetSetForModel(model);
  for (int n_cols : {8, 12, 20}) {
    PhysicalLayout layout = SimulateLayout(model, gs, n_cols);
    const Tensor<float> input = SyntheticInput(model, 5);
    BuiltBatchedCircuit built =
        BuildBatchedCircuit(model, layout, {QuantizeTensor(input, model.quant)});
    EXPECT_EQ(built.builder->RowsUsed(), layout.rows_used) << n_cols;
    EXPECT_EQ(built.builder->MinRowsRequired(), layout.min_rows) << n_cols;
  }
}

TEST(CompilerTest, BuiltCircuitSatisfiesConstraints) {
  const Model model = MakeMnistCnn();
  PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 12);
  const Tensor<float> input = SyntheticInput(model, 6);
  BuiltBatchedCircuit built =
      BuildBatchedCircuit(model, layout, {QuantizeTensor(input, model.quant)});
  MockProver mp(&built.builder->cs(), &built.builder->assignment());
  auto failures = mp.Verify();
  EXPECT_TRUE(failures.empty()) << (failures.empty() ? "" : failures[0].description);
}

TEST(CompilerTest, MoreColumnsFewerRows) {
  const Model model = MakeMnistCnn();
  const GadgetSet gs = GadgetSetForModel(model);
  PhysicalLayout narrow = SimulateLayout(model, gs, 8);
  PhysicalLayout wide = SimulateLayout(model, gs, 32);
  EXPECT_GT(narrow.rows_used, wide.rows_used);
  EXPECT_GE(narrow.k, wide.k);
  EXPECT_GT(wide.num_lookups, narrow.num_lookups);  // more slots => more lookups
}

TEST(CompilerTest, TableBoundsGridSize) {
  // Even a tiny model cannot use fewer rows than its lookup tables need.
  const Model model = MakeMnistCnn();  // table_bits = 10
  PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 40);
  EXPECT_GE(layout.k, 10);
}

TEST(CostModelTest, HardwareProfileMonotone) {
  const HardwareProfile& hw = HardwareProfile::Cached();
  EXPECT_GT(hw.FftSeconds(12), hw.FftSeconds(10));
  EXPECT_GT(hw.MsmSeconds(14), hw.MsmSeconds(10));
  EXPECT_GT(hw.FftSeconds(20), hw.FftSeconds(14));  // extrapolated
  EXPECT_GT(hw.field_mul_seconds(), 0);
  EXPECT_LT(hw.field_mul_seconds(), 1e-5);
}

TEST(CostModelTest, CostGrowsWithRows) {
  const Model model = MakeMnistCnn();
  const GadgetSet gs = GadgetSetForModel(model);
  const HardwareProfile& hw = HardwareProfile::Cached();
  PhysicalLayout small = SimulateLayout(model, gs, 16);
  PhysicalLayout big = small;
  big.k = small.k + 2;
  EXPECT_GT(EstimateProvingCost(big, hw, PcsKind::kKzg).total_seconds,
            EstimateProvingCost(small, hw, PcsKind::kKzg).total_seconds);
}

TEST(CostModelTest, FftCountMatchesEq2) {
  PhysicalLayout layout;
  layout.k = 12;
  layout.num_instance = 1;
  layout.num_advice = 10;
  layout.num_lookups = 4;
  layout.num_perm = 12;
  layout.max_degree = 5;
  layout.ext_k = 2;
  const CostEstimate est = EstimateProvingCost(layout, HardwareProfile::Cached(), PcsKind::kKzg);
  // n_FFT = 1 + 10 + 12 + ceil(12/3) = 27.
  EXPECT_EQ(est.n_ffts, 27u);
  EXPECT_EQ(est.n_msms, 27u + 4u);  // + d_max - 1
  const CostEstimate ipa = EstimateProvingCost(layout, HardwareProfile::Cached(), PcsKind::kIpa);
  EXPECT_EQ(ipa.n_msms, est.n_msms + 1);
}

TEST(CostModelTest, ProofSizeSmallerWithFewerColumns) {
  const Model model = MakeMnistCnn();
  const GadgetSet gs = GadgetSetForModel(model);
  PhysicalLayout narrow = SimulateLayout(model, gs, 8);
  PhysicalLayout wide = SimulateLayout(model, gs, 32);
  EXPECT_LT(EstimateProofSize(narrow, PcsKind::kKzg), EstimateProofSize(wide, PcsKind::kKzg));
  EXPECT_GT(EstimateProofSize(narrow, PcsKind::kIpa), EstimateProofSize(narrow, PcsKind::kKzg));
}

TEST(OptimizerTest, FindsFeasibleLayoutAndRespectsBounds) {
  const Model model = MakeMnistCnn();
  OptimizerOptions opts;
  opts.min_columns = 8;
  opts.max_columns = 24;
  OptimizerResult result = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  EXPECT_GT(result.plans_evaluated, 0u);
  EXPECT_GE(result.best.layout.num_columns, 8);
  EXPECT_LE(result.best.layout.num_columns, 24);
  EXPECT_GT(result.best.layout.k, 0);
  // The chosen plan must be the cheapest evaluated one.
  for (const RankedLayout& r : result.all) {
    EXPECT_GE(r.cost.total_seconds, result.best.cost.total_seconds - 1e-12);
  }
}

TEST(OptimizerTest, PruningPreservesTheChosenPlan) {
  const Model model = MakeMnistCnn();
  OptimizerOptions opts;
  opts.min_columns = 8;
  opts.max_columns = 20;
  opts.prune = true;
  OptimizerResult pruned = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  opts.prune = false;
  OptimizerResult full = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  EXPECT_GE(full.plans_evaluated, pruned.plans_evaluated);
  EXPECT_EQ(pruned.best.layout.num_columns, full.best.layout.num_columns);
  EXPECT_EQ(pruned.best.layout.k, full.best.layout.k);
  EXPECT_TRUE(pruned.best.layout.gadgets == full.best.layout.gadgets);
}

TEST(OptimizerTest, SizeObjectivePrefersFewerColumns) {
  const Model model = MakeMnistCnn();
  OptimizerOptions opts;
  opts.min_columns = 8;
  opts.max_columns = 24;
  OptimizerResult time_opt = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  opts.objective = OptimizerOptions::Objective::kProofSize;
  OptimizerResult size_opt = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  EXPECT_LE(size_opt.best.proof_size_bytes, time_opt.best.proof_size_bytes);
  EXPECT_LE(size_opt.best.layout.num_columns, time_opt.best.layout.num_columns);
}

TEST(OptimizerTest, MaxKConstraintFiltersPlans) {
  const Model model = MakeVggLite();
  OptimizerOptions opts;
  opts.min_columns = 8;
  opts.max_columns = 12;
  opts.max_k = 13;  // table_bits=12 forces k >= 13; gadget rows may exceed it
  OptimizerResult result = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  for (const RankedLayout& r : result.all) {
    EXPECT_LE(r.layout.k, 13);
  }
}

// The optimizer is a pure function of (model, options): the hardware profile
// is a committed table, so these layouts hold in every process on every host,
// and a verifier that recompiles a plan gets the prover's keys. Editing that
// table is a declared change, like a golden hash: re-derive these layouts and
// say which moved. The options are zkml_cli's envelope.
TEST(OptimizerTest, CommittedProfilePinsLayouts) {
  auto layout = [](const Model& model, PcsKind backend, size_t batch) {
    OptimizerOptions opts;
    opts.min_columns = 8;
    opts.max_columns = 32;
    opts.max_k = 15;
    opts.backend = backend;
    opts.batch = batch;
    const PhysicalLayout l = OptimizeLayout(model, HardwareProfile::Cached(), opts).best.layout;
    return std::to_string(l.num_columns) + "x2^" + std::to_string(l.k);
  };
  const Model mnist = MakeMnistCnn();
  EXPECT_EQ(layout(mnist, PcsKind::kKzg, 1), "26x2^9");
  EXPECT_EQ(layout(mnist, PcsKind::kIpa, 1), "26x2^9");
  EXPECT_EQ(layout(mnist, PcsKind::kKzg, 2), "14x2^11");
  EXPECT_EQ(layout(mnist, PcsKind::kKzg, 4), "26x2^11");

  StatusOr<ModelPartition> halves = PartitionModel(mnist, 2);
  ASSERT_TRUE(halves.ok()) << halves.status().ToString();
  ASSERT_EQ(halves->num_shards(), 2u);
  EXPECT_EQ(layout(halves->shards[0].model, PcsKind::kKzg, 1), "12x2^9");
  EXPECT_EQ(layout(halves->shards[1].model, PcsKind::kKzg, 1), "20x2^9");

  const Model gpt2 = MakeGpt2Lite();
  EXPECT_EQ(layout(gpt2, PcsKind::kKzg, 1), "18x2^12");
  EXPECT_EQ(layout(gpt2, PcsKind::kIpa, 1), "18x2^12");
}

}  // namespace
}  // namespace zkml
