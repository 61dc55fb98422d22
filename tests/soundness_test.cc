// Tests for the soundness-audit subsystem: the constraint-coverage analyzer,
// the witness-mutation fuzzer (including the historical under-constrained
// filler cells it was built to catch — every gadget circuit must now fuzz
// clean), per-gadget negative-witness checks, non-linearity boundary values,
// and the end-to-end audit entry point with its forgery harness.
#include <gtest/gtest.h>

#include <cmath>

#include "src/base/kernel_stats.h"
#include "src/base/rng.h"
#include "src/gadgets/circuit_builder.h"
#include "src/model/model_builder.h"
#include "src/obs/metrics.h"
#include "src/model/zoo.h"
#include "src/plonk/mock_prover.h"
#include "src/plonk/soundness.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/plan.h"
#include "tests/golden_circuit.h"

namespace zkml {
namespace {

// --- Shared RNG helper (also used by tests/proof_mutator.h and the fuzzer).

TEST(RngSubstreamTest, StreamsAreIndependentAndReproducible) {
  Rng a(42, 0);
  Rng b(42, 1);
  // Distinct streams from the same seed diverge immediately.
  EXPECT_NE(a.NextU64(), b.NextU64());
  // The same (seed, stream) pair replays exactly.
  Rng c(42, 1);
  Rng d(42, 1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c.NextU64(), d.NextU64());
  }
  // Stream 0 is not required to match the single-seed constructor, but must
  // itself be deterministic.
  Rng e(42, 0);
  Rng f(42, 0);
  EXPECT_EQ(e.NextU64(), f.NextU64());
}

// --- MockProver exhaustive reporting.

TEST(MockProverTest, KAllFailuresReportsPastTheDefaultCap) {
  GoldenCircuit gc;
  Assignment asn = gc.MakeAssignment();
  // Shift every semantic advice cell by one: far more than 16 constraints
  // break at once.
  for (size_t col = 0; col < gc.cs.num_advice_columns(); ++col) {
    for (size_t row = 0; row < asn.num_rows(); ++row) {
      if (asn.advice_tag(col, row) == AdviceTag::kSemantic) {
        const Column column{ColumnType::kAdvice, static_cast<uint32_t>(col)};
        asn.SetAdvice(column, row, asn.Get(column, row) + Fr::One());
      }
    }
  }
  MockProver mp(&gc.cs, &asn);
  EXPECT_EQ(mp.Verify().size(), 16u);  // default cap
  const auto all = mp.Verify(MockProver::kAllFailures);
  EXPECT_GT(all.size(), 16u);
  EXPECT_FALSE(mp.IsSatisfied());
}

// --- Coverage analyzer.

TEST(CoverageTest, CountsGoldenCircuitActivations) {
  GoldenCircuit gc;
  const Assignment asn = gc.MakeAssignment();
  const CoverageReport cov = AnalyzeCoverage(gc.cs, asn);
  ASSERT_EQ(cov.gates.size(), 3u);
  EXPECT_EQ(cov.gates[0].name, "mac");
  EXPECT_EQ(cov.gates[0].active_rows, 5u);  // sel rows 0..4
  EXPECT_EQ(cov.gates[1].name, "square-chain");
  EXPECT_EQ(cov.gates[1].active_rows, 4u);  // srot rows 1..4
  EXPECT_EQ(cov.gates[2].name, "square-chain-prev");
  EXPECT_EQ(cov.gates[2].active_rows, 4u);  // srot at rotation -1: rows 2..5
  ASSERT_EQ(cov.lookups.size(), 1u);
  EXPECT_EQ(cov.lookups[0].active_rows, 7u);  // slk rows 0..6
  // 16 table rows; padding repeats (0,0), so 16 distinct tuples.
  EXPECT_EQ(cov.lookups[0].table_tuples, 16u);
  // Inputs {1,2,3,5,15,7,7} hit 6 distinct tuples.
  EXPECT_EQ(cov.lookups[0].referenced_tuples, 6u);
  EXPECT_EQ(cov.dead_gates, 0u);
  EXPECT_EQ(cov.dead_lookups, 0u);
}

TEST(CoverageTest, FlagsDeadGateAndDeadLookup) {
  ConstraintSystem cs;
  const Column a = cs.AddAdviceColumn(false);
  const Column live_sel = cs.AddFixedColumn();
  const Column dead_sel = cs.AddFixedColumn();
  const Column tbl = cs.AddFixedColumn();
  cs.AddGate("live", Expression::Query(live_sel) * Expression::Query(a));
  cs.AddGate("dead", Expression::Query(dead_sel) * Expression::Query(a));
  cs.AddLookup("dead-lookup", {Expression::Query(dead_sel) * Expression::Query(a)}, {tbl});

  Assignment asn(cs, 8);
  asn.SetFixed(live_sel, 0, Fr::One());  // dead_sel stays identically zero
  const CoverageReport cov = AnalyzeCoverage(cs, asn);
  EXPECT_EQ(cov.gates[0].active_rows, 1u);
  EXPECT_EQ(cov.gates[1].active_rows, 0u);
  EXPECT_EQ(cov.dead_gates, 1u);
  EXPECT_EQ(cov.dead_lookups, 1u);
  const obs::Json report = SoundnessReportJson(cov, MutationReport{});
  EXPECT_FALSE(report.Find("sound")->AsBool());
}

// --- Mutation fuzzer on hand-built circuits.

TEST(FuzzerTest, FlagsACompletelyUnconstrainedCell) {
  ConstraintSystem cs;
  const Column a = cs.AddAdviceColumn(false);
  (void)a;
  Assignment asn(cs, 4);
  asn.SetAdvice(a, 0, Fr::FromInt64(5));  // nothing references this cell

  const MutationReport rep = FuzzWitness(cs, asn);
  EXPECT_EQ(rep.cells_fuzzed, 1u);
  EXPECT_EQ(rep.cells_unassigned, 3u);
  EXPECT_GT(rep.surviving_mutants, 0u);
  EXPECT_FALSE(rep.AllDetected());
  ASSERT_FALSE(rep.survivors.empty());
  EXPECT_EQ(rep.survivors[0].column_index, 0u);
  EXPECT_EQ(rep.survivors[0].row, 0u);
}

TEST(FuzzerTest, FreeWitnessCellsAreExempt) {
  ConstraintSystem cs;
  const Column a = cs.AddAdviceColumn(false);
  Assignment asn(cs, 4);
  asn.SetAdvice(a, 0, Fr::FromInt64(5));
  asn.TagAdvice(a, 0, AdviceTag::kFreeWitness);

  const MutationReport rep = FuzzWitness(cs, asn);
  EXPECT_EQ(rep.cells_fuzzed, 0u);
  EXPECT_EQ(rep.cells_free_witness, 1u);
  EXPECT_TRUE(rep.AllDetected());
}

// The golden circuit's square chain only pins the *square* of its head cell:
// d[1] = -3 satisfies d[2] = d[1]^2 just as well, and no other constraint
// sees d[1]. The fuzzer must surface exactly this sign ambiguity.
TEST(FuzzerTest, FindsGoldenCircuitSquareChainSignAmbiguity) {
  GoldenCircuit gc;
  const Assignment asn = gc.MakeAssignment();
  ASSERT_TRUE(MockProver(&gc.cs, &asn).IsSatisfied());

  const MutationReport rep = FuzzWitness(gc.cs, asn);
  EXPECT_GT(rep.surviving_mutants, 0u);
  ASSERT_FALSE(rep.survivors.empty());
  const Fr nine = Fr::FromInt64(9);
  for (const SurvivingMutant& s : rep.survivors) {
    EXPECT_EQ(s.column_index, gc.d.index) << s.description;
    EXPECT_EQ(s.row, 1u) << s.description;
    // Every survivor is the other square root of d[2] = 9.
    EXPECT_EQ(s.value * s.value, nine) << s.description;
  }
}

// ... and pinning the chain head (here: copying it to a public instance cell)
// eliminates the ambiguity: the fuzzer then detects every mutant.
TEST(FuzzerTest, GoldenCircuitFuzzesCleanOncePinned) {
  GoldenCircuit gc;
  gc.cs.EnableEquality(gc.d);
  Assignment asn = gc.MakeAssignment();
  asn.SetInstance(gc.inst, 1, Fr::FromInt64(3));
  asn.Copy(Cell{gc.inst, 1}, Cell{gc.d, 1});
  ASSERT_TRUE(MockProver(&gc.cs, &asn).IsSatisfied());

  const MutationReport rep = FuzzWitness(gc.cs, asn);
  EXPECT_TRUE(rep.AllDetected())
      << (rep.survivors.empty() ? "" : rep.survivors[0].description);
  EXPECT_GT(rep.cells_fuzzed, 30u);
  EXPECT_GT(rep.mutants_detected, 0u);
  EXPECT_EQ(rep.mutants_tried, rep.mutants_detected);
}

// --- Gadget circuits: every variant must fuzz clean, and tampering any
// gadget output must be rejected by the MockProver.

BuilderOptions GadgetOptions(int k = 11) {
  BuilderOptions opts;
  opts.num_io_columns = 12;
  opts.quant.sf_bits = 5;
  opts.quant.table_bits = 10;
  opts.estimate_only = false;
  opts.k = k;
  return opts;
}

// Full audit of a built gadget circuit: satisfied, no dead constraints, and
// zero surviving mutants (the regression property for the filler-pinning
// fixes — unpinned neutral fillers in mul/max/dot/nonlin rows used to
// survive).
void ExpectFuzzClean(const CircuitBuilder& cb) {
  const auto failures = MockProver(&cb.cs(), &cb.assignment()).Verify(4);
  ASSERT_TRUE(failures.empty()) << failures[0].description;
  const CoverageReport cov = AnalyzeCoverage(cb.cs(), cb.assignment());
  EXPECT_EQ(cov.dead_gates, 0u) << "a registered gate never activates";
  EXPECT_EQ(cov.dead_lookups, 0u) << "a registered lookup never activates";
  FuzzOptions fuzz;
  fuzz.seed = 7;
  const MutationReport rep = FuzzWitness(cb.cs(), cb.assignment(), fuzz);
  EXPECT_GT(rep.cells_fuzzed, 0u);
  EXPECT_TRUE(rep.AllDetected())
      << rep.surviving_mutants << " survivors, first: "
      << (rep.survivors.empty() ? "" : rep.survivors[0].description);
}

// Negative witness: overwriting a gadget's output cell must break a
// constraint.
void ExpectTamperRejected(const CircuitBuilder& cb, const Operand& out) {
  ASSERT_TRUE(out.has_cell);
  Assignment tampered = cb.assignment();
  tampered.SetAdvice(out.cell.column, out.cell.row,
                     cb.assignment().Get(out.cell.column, out.cell.row) + Fr::One());
  EXPECT_FALSE(MockProver(&cb.cs(), &tampered).IsSatisfied());
}

TEST(GadgetSoundnessTest, PackedAddSub) {
  BuilderOptions opts = GadgetOptions();
  CircuitBuilder cb(opts);
  const Operand s = cb.Add({{cb.Fresh(3), cb.Fresh(4)}})[0];
  const Operand d = cb.Sub({{s, cb.Fresh(2)}})[0];
  EXPECT_EQ(s.q, 7);
  EXPECT_EQ(d.q, 5);
  ExpectTamperRejected(cb, s);
  ExpectTamperRejected(cb, d);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, PackedMulWithFillerSlots) {
  BuilderOptions opts = GadgetOptions();
  CircuitBuilder cb(opts);
  // One pair on a multi-slot row: the remaining slots are neutral fillers.
  // Mutating a filler's operands must be caught (they are pinned to circuit
  // constants by copy); this was the canonical under-constrained cell the
  // fuzzer first found (x * 0 = 0 holds for every x).
  const Operand p = cb.Mul({{cb.Fresh(96), cb.Fresh(48)}})[0];
  EXPECT_EQ(p.q, 96 * 48 / 32);
  ExpectTamperRejected(cb, p);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, DedicatedSquareAndSquaredDiff) {
  BuilderOptions opts = GadgetOptions();
  CircuitBuilder cb(opts);
  const Operand sq = cb.Square({cb.Fresh(40)})[0];
  const Operand sd = cb.SquaredDiff({{cb.Fresh(9), cb.Fresh(3)}})[0];
  EXPECT_EQ(sq.q, 40 * 40 / 32);
  EXPECT_EQ(sd.q, 6 * 6 / 32);
  ExpectTamperRejected(cb, sq);
  ExpectTamperRejected(cb, sd);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, ArithViaDotBaseline) {
  BuilderOptions opts = GadgetOptions();
  opts.gadgets.packed_arith = false;
  CircuitBuilder cb(opts);
  ImplChoice choice = ImplChoice::FromGadgetSet(opts.gadgets);
  choice.packed_arith = false;
  cb.SetImplChoice(choice);
  const Operand s = cb.Add({{cb.Fresh(3), cb.Fresh(4)}})[0];
  const Operand p = cb.Mul({{cb.Fresh(96), cb.Fresh(48)}})[0];
  EXPECT_EQ(s.q, 7);
  EXPECT_EQ(p.q, 96 * 48 / 32);
  ExpectTamperRejected(cb, s);
  ExpectTamperRejected(cb, p);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, DotProductWithBiasChaining) {
  BuilderOptions opts = GadgetOptions();
  CircuitBuilder cb(opts);
  // 7 terms: does not divide the row width, so chained rows carry fillers.
  std::vector<Operand> xs, ys;
  for (int i = 1; i <= 7; ++i) {
    xs.push_back(cb.Fresh(i));
    ys.push_back(cb.Fresh(10 - i));
  }
  const Operand bias = cb.Fresh(5);
  const Operand acc = cb.DotProduct(xs, ys, &bias);
  const Operand out = cb.Rescale({acc})[0];
  ExpectTamperRejected(cb, acc);
  ExpectTamperRejected(cb, out);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, DotProductWithSumTree) {
  BuilderOptions opts = GadgetOptions();
  opts.gadgets.dot_bias_chaining = false;
  CircuitBuilder cb(opts);
  ImplChoice choice = ImplChoice::FromGadgetSet(opts.gadgets);
  cb.SetImplChoice(choice);
  std::vector<Operand> xs, ys;
  for (int i = 1; i <= 9; ++i) {
    xs.push_back(cb.Fresh(i));
    ys.push_back(cb.Fresh(i + 3));
  }
  const Operand acc = cb.DotProduct(xs, ys, nullptr);
  ExpectTamperRejected(cb, acc);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, SumWithFillerSlots) {
  BuilderOptions opts = GadgetOptions();
  CircuitBuilder cb(opts);
  const Operand total =
      cb.Sum({cb.Fresh(1), cb.Fresh(2), cb.Fresh(3), cb.Fresh(4), cb.Fresh(5)});
  EXPECT_EQ(total.q, 15);
  ExpectTamperRejected(cb, total);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, ReluLookupWithFillerSlots) {
  BuilderOptions opts = GadgetOptions();
  opts.gadgets.nonlin_fns = {NonlinFn::kRelu};
  CircuitBuilder cb(opts);
  // One real input on a multi-slot lookup row: fillers are pinned on both
  // halves so neither the filler x (relu maps every negative to 0) nor the
  // filler y (the all-zero pad tuple) leaves a free cell.
  const Operand y = cb.Nonlinearity(NonlinFn::kRelu, {cb.Fresh(-17)})[0];
  EXPECT_EQ(y.q, 0);
  ExpectFuzzClean(cb);
  const Operand pos = cb.Nonlinearity(NonlinFn::kRelu, {cb.Fresh(17)})[0];
  EXPECT_EQ(pos.q, 17);
  ExpectTamperRejected(cb, pos);
}

TEST(GadgetSoundnessTest, ReluViaBitDecomposition) {
  BuilderOptions opts = GadgetOptions();
  opts.gadgets.nonlin_fns = {NonlinFn::kRelu};
  opts.gadgets.relu_lookup = false;
  opts.gadgets.relu_bits = true;
  CircuitBuilder cb(opts);
  ImplChoice choice = ImplChoice::FromGadgetSet(opts.gadgets);
  cb.SetImplChoice(choice);
  const Operand neg = cb.Nonlinearity(NonlinFn::kRelu, {cb.Fresh(-100)})[0];
  const Operand pos = cb.Nonlinearity(NonlinFn::kRelu, {cb.Fresh(100)})[0];
  EXPECT_EQ(neg.q, 0);
  EXPECT_EQ(pos.q, 100);
  ExpectTamperRejected(cb, pos);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, MaxWithFillerSlots) {
  BuilderOptions opts = GadgetOptions();
  opts.gadgets.need_max = true;
  CircuitBuilder cb(opts);
  // One pair per row leaves filler slots; small negative mutations of an
  // unpinned filler used to survive through the (c-a)(c-b)=0 gate's other
  // factor plus the range lookup's slack.
  const Operand m = cb.Max({{cb.Fresh(-5), cb.Fresh(3)}})[0];
  EXPECT_EQ(m.q, 3);
  const Operand r = cb.MaxReduce({cb.Fresh(7), cb.Fresh(-2), cb.Fresh(11)});
  EXPECT_EQ(r.q, 11);
  ExpectTamperRejected(cb, m);
  ExpectTamperRejected(cb, r);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, VarDivRound) {
  BuilderOptions opts = GadgetOptions();
  opts.gadgets.need_vardiv = true;
  CircuitBuilder cb(opts);
  const Operand a = cb.VarDivRound(cb.Fresh(7), cb.Fresh(2));
  const Operand b = cb.VarDivRound(cb.Fresh(-500), cb.Fresh(3));
  EXPECT_EQ(a.q, 4);  // round(7/2)
  EXPECT_EQ(b.q, -167);
  ExpectTamperRejected(cb, a);
  ExpectTamperRejected(cb, b);
  ExpectFuzzClean(cb);
}

TEST(GadgetSoundnessTest, SoftmaxComposition) {
  BuilderOptions opts = GadgetOptions();
  opts.gadgets.nonlin_fns = {NonlinFn::kExp};
  opts.gadgets.need_max = true;
  opts.gadgets.need_vardiv = true;
  CircuitBuilder cb(opts);
  const std::vector<Operand> ys =
      cb.Softmax({cb.Fresh(32), cb.Fresh(-16), cb.Fresh(8)});
  int64_t total = 0;
  for (const Operand& y : ys) {
    total += y.q;
  }
  // A distribution at scale SF = 32, within rounding.
  EXPECT_NEAR(static_cast<double>(total), 32.0, 3.0);
  ExpectTamperRejected(cb, ys[0]);
  ExpectFuzzClean(cb);
}

// --- Non-linearity boundary values (regression for the EvalNonlinQ clamp
// that was 256x beyond the band the range tables accept: extreme exp/rsqrt
// witnesses aborted witness generation instead of landing on a table row).

class NonlinBoundaryTest : public ::testing::TestWithParam<NonlinFn> {};

TEST_P(NonlinBoundaryTest, ExtremeInputsStayInTableAndSatisfy) {
  const NonlinFn fn = GetParam();
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  const std::vector<int64_t> boundary = {qp.TableMin(), qp.TableMin() + 1, -1, 0, 1,
                                         qp.TableMax() - 1};
  for (const int64_t xq : boundary) {
    const int64_t yq = EvalNonlinQ(fn, xq, qp);
    // The witness generator and the table builder share NonlinOutputBound, so
    // every output is representable in the range-checked band.
    EXPECT_LE(std::abs(yq), NonlinOutputBound(qp)) << NonlinFnName(fn) << "(" << xq << ")";
    EXPECT_TRUE(qp.InTableRange(yq)) << NonlinFnName(fn) << "(" << xq << ")";
  }

  BuilderOptions opts = GadgetOptions();
  opts.quant = qp;
  opts.gadgets.nonlin_fns = {fn};
  CircuitBuilder cb(opts);
  std::vector<Operand> xs;
  for (const int64_t xq : boundary) {
    xs.push_back(cb.Fresh(xq));
  }
  const std::vector<Operand> ys = cb.Nonlinearity(fn, xs);
  ASSERT_EQ(ys.size(), xs.size());
  const auto failures = MockProver(&cb.cs(), &cb.assignment()).Verify(4);
  EXPECT_TRUE(failures.empty()) << NonlinFnName(fn) << ": " << failures[0].description;
}

INSTANTIATE_TEST_SUITE_P(AllFns, NonlinBoundaryTest,
                         ::testing::Values(NonlinFn::kRelu, NonlinFn::kRelu6, NonlinFn::kSigmoid,
                                           NonlinFn::kTanh, NonlinFn::kExp, NonlinFn::kGelu,
                                           NonlinFn::kElu, NonlinFn::kSqrt, NonlinFn::kRsqrt,
                                           NonlinFn::kSiLU),
                         [](const ::testing::TestParamInfo<NonlinFn>& info) {
                           return NonlinFnName(info.param);
                         });

// --- End-to-end audit on a compiled model: fuzz the real witness, check
// coverage of the compiled constraint system (lazy gate registration must
// leave no dead gates), and run the forgery harness under both backends.

TEST(SoundnessAuditTest, TinyModelPassesFullAudit) {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  ModelBuilder mb("tiny-mlp", Shape({6}), qp, 3);
  int t = mb.FullyConnected(mb.input(), 4);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 3);
  const Model model = mb.Finish(t);

  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 11), model.quant);
  SoundnessAuditOptions options;
  options.seed = 5;
  const SoundnessAudit audit = RunSoundnessAudit(model, input, options);

  EXPECT_TRUE(audit.witness_satisfied);
  EXPECT_EQ(audit.coverage.dead_gates, 0u)
      << "compiled circuit registered a gate the model never activates";
  EXPECT_EQ(audit.coverage.dead_lookups, 0u);
  EXPECT_GT(audit.mutation.cells_fuzzed, 0u);
  EXPECT_GT(audit.mutation.cells_free_witness, 0u);  // the model's weights
  EXPECT_TRUE(audit.mutation.AllDetected())
      << audit.mutation.surviving_mutants << " survivors, first: "
      << (audit.mutation.survivors.empty() ? "" : audit.mutation.survivors[0].description);

  ASSERT_TRUE(audit.forgery_ran);
  EXPECT_TRUE(audit.honest_kzg_accepted);
  EXPECT_TRUE(audit.honest_ipa_accepted);
  EXPECT_TRUE(audit.forged_kzg_rejected);
  EXPECT_TRUE(audit.forged_ipa_rejected);
  EXPECT_TRUE(audit.Passed());

  // The serialized report round-trips and carries the schema tag.
  const obs::Json report = audit.ToJson();
  EXPECT_EQ(report.Find("schema")->AsString(), "zkml.soundness/v1");
  EXPECT_TRUE(report.Find("passed")->AsBool());
  ASSERT_NE(report.Find("forgery"), nullptr);
  const StatusOr<obs::Json> reparsed = obs::Json::Parse(report.DumpPretty());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().Find("mutation")->Find("surviving_mutants")->AsInt(), 0);
}

// --- Sharded-proving forgeries: a prover that lies about a boundary
// activation (the value stitching two adjacent shards) must be rejected with
// a stage-attributed error, under both commitment backends.

ZkmlOptions FastShardedOptions(PcsKind backend) {
  ZkmlOptions options;
  options.backend = backend;
  options.optimizer.min_columns = 10;
  options.optimizer.max_columns = 26;
  options.optimizer.max_k = 14;
  return options;
}

Model TinyChainModel() {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  ModelBuilder mb("tiny-chain", Shape({6}), qp, 3);
  int t = mb.FullyConnected(mb.input(), 4);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 3);
  return mb.Finish(t);
}

class ShardedForgeryTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(ShardedForgeryTest, MutatedBoundaryActivationRejected) {
  const Model model = TinyChainModel();
  const StatusOr<CompiledPlan> compiled =
      CompilePlan(model, {2, 1}, FastShardedOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 11), model.quant);
  const StatusOr<PlanProof> proof = ProvePlan(*compiled, {input});
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_TRUE(VerifyPlan(*compiled, proof->instance, EncodePlanProof(proof->artifact)).ok());

  // Forge the interior boundary: the activation shard 0 claims to hand to
  // shard 1. Both shards read the same stored vector, so the lie must be
  // caught by a shard's own instance check — with the culprit named.
  PlanArtifact forged = proof->artifact;
  ASSERT_EQ(forged.vectors.size(), 3u);
  forged.vectors[1][0] += Fr::One();
  const VerifyResult r = VerifyPlan(*compiled, proof->instance, EncodePlanProof(forged));
  ASSERT_FALSE(r.ok()) << "forged boundary activation accepted";
  EXPECT_NE(r.stage, VerifyStage::kAccepted);
  EXPECT_NE(r.ToString().find("shard"), std::string::npos) << r.ToString();
}

TEST_P(ShardedForgeryTest, MutatedOuterBoundaryRejectedAtStitchStage) {
  const Model model = TinyChainModel();
  const StatusOr<CompiledPlan> compiled =
      CompilePlan(model, {2, 1}, FastShardedOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 19), model.quant);
  const StatusOr<PlanProof> proof = ProvePlan(*compiled, {input});
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();

  // Forge the artifact's copy of the model input while keeping the claimed
  // statement honest: the outer-boundary consistency check fires first.
  PlanArtifact forged = proof->artifact;
  forged.vectors.front()[0] += Fr::One();
  const VerifyResult r = VerifyPlan(*compiled, proof->instance, EncodePlanProof(forged));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.stage, VerifyStage::kStitch) << r.ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardedForgeryTest,
                         ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

// --- Cross-proof RLC batch verification: K independent proofs folded into
// one pairing check, with per-proof blame when exactly one of them is forged.

TEST(CrossProofForgeryTest, EightHonestProofsCostExactlyOnePairingCheck) {
  const Model model = TinyChainModel();
  const CompiledModel compiled = CompileModel(model, FastShardedOptions(PcsKind::kKzg));
  constexpr size_t kCount = 8;
  std::vector<ZkmlProof> proofs;
  for (size_t i = 0; i < kCount; ++i) {
    const Tensor<int64_t> input =
        QuantizeTensor(SyntheticInput(model, 100 + i), model.quant);
    proofs.push_back(Prove(compiled, input));
  }
  std::vector<CrossProofClaim> claims(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    claims[i] = {&compiled.pk.vk, compiled.pcs.get(), &proofs[i].instance, &proofs[i].bytes};
  }

  obs::Counter& pairings = obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks");
  const uint64_t before = pairings.Value();
  KernelSink sink;
  CrossProofVerdict verdict;
  {
    kernelstats::ScopedSink scope(&sink);
    verdict = VerifyProofsBatched(claims);
  }
  const uint64_t after = pairings.Value();
  EXPECT_TRUE(verdict.ok()) << verdict.status.ToString();
  EXPECT_TRUE(verdict.blamed.empty());
  // The acceptance property batching exists for: K=8 proofs, ONE pairing
  // check, computed as ONE MSM. Every per-proof opening claim was deferred
  // into the accumulator.
  EXPECT_EQ(after - before, 1u);
  EXPECT_EQ(sink.Capture().msm_calls, 1u);
}

TEST(CrossProofForgeryTest, OneForgedProofOfEightBlamedByIndex) {
  const Model model = TinyChainModel();
  const CompiledModel compiled = CompileModel(model, FastShardedOptions(PcsKind::kKzg));
  constexpr size_t kCount = 8;
  constexpr size_t kForged = 5;
  std::vector<ZkmlProof> proofs;
  for (size_t i = 0; i < kCount; ++i) {
    const Tensor<int64_t> input =
        QuantizeTensor(SyntheticInput(model, 200 + i), model.quant);
    proofs.push_back(Prove(compiled, input));
  }
  // Negate proof 5's final KZG witness point via the compressed-point prefix
  // byte: it deserializes cleanly and survives every inline transcript and
  // evaluation check, so only the aggregate RLC pairing equality can catch
  // it — and the diagnostic re-check must name exactly that proof.
  std::vector<uint8_t>& pb = proofs[kForged].bytes;
  ASSERT_GE(pb.size(), 33u);
  pb[pb.size() - 33] ^= 0x01;

  std::vector<CrossProofClaim> claims(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    claims[i] = {&compiled.pk.vk, compiled.pcs.get(), &proofs[i].instance, &proofs[i].bytes};
  }
  const CrossProofVerdict verdict = VerifyProofsBatched(claims);
  ASSERT_FALSE(verdict.ok()) << "forged proof accepted in the batch";
  EXPECT_EQ(verdict.stage, VerifyStage::kAggregate) << verdict.status.ToString();
  ASSERT_EQ(verdict.blamed.size(), 1u);
  EXPECT_EQ(verdict.blamed[0], kForged);
}

TEST(CrossProofForgeryTest, TamperedStatementBlamedWithoutPairingFailure) {
  // A wrong public statement dies inside that claim's own verifier (the
  // transcript re-derivation), so the blame needs no aggregate diagnostics.
  const Model model = TinyChainModel();
  const CompiledModel compiled = CompileModel(model, FastShardedOptions(PcsKind::kKzg));
  std::vector<ZkmlProof> proofs;
  for (size_t i = 0; i < 3; ++i) {
    const Tensor<int64_t> input =
        QuantizeTensor(SyntheticInput(model, 300 + i), model.quant);
    proofs.push_back(Prove(compiled, input));
  }
  std::vector<Fr> lie = proofs[1].instance;
  lie.back() += Fr::One();
  std::vector<CrossProofClaim> claims(3);
  for (size_t i = 0; i < 3; ++i) {
    claims[i] = {&compiled.pk.vk, compiled.pcs.get(),
                 i == 1 ? &lie : &proofs[i].instance, &proofs[i].bytes};
  }
  const CrossProofVerdict verdict = VerifyProofsBatched(claims);
  ASSERT_FALSE(verdict.ok());
  ASSERT_EQ(verdict.blamed.size(), 1u);
  EXPECT_EQ(verdict.blamed[0], 1u);
}

TEST(CrossProofForgeryTest, IpaClaimsVerifyInlineInTheSameBatch) {
  // Non-KZG backends have no deferred pairing claim; the batch verifier
  // checks them inline and they share the verdict with KZG claims.
  const Model model = TinyChainModel();
  const CompiledModel kzg = CompileModel(model, FastShardedOptions(PcsKind::kKzg));
  const CompiledModel ipa = CompileModel(model, FastShardedOptions(PcsKind::kIpa));
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 400), model.quant);
  const ZkmlProof pk_proof = Prove(kzg, input);
  const ZkmlProof pi_proof = Prove(ipa, input);
  const std::vector<CrossProofClaim> claims = {
      {&kzg.pk.vk, kzg.pcs.get(), &pk_proof.instance, &pk_proof.bytes},
      {&ipa.pk.vk, ipa.pcs.get(), &pi_proof.instance, &pi_proof.bytes},
  };
  const CrossProofVerdict verdict = VerifyProofsBatched(claims);
  EXPECT_TRUE(verdict.ok()) << verdict.status.ToString();
}

// A single proof's openings are checked together as one MSM; a forged
// witness point is still rejected at the opening stage, and the per-claim
// re-check on the rejection path names the rotation whose opening is bad.
TEST(SingleProofForgeryTest, NegatedWitnessPointBlamesItsRotation) {
  const Model model = TinyChainModel();
  const CompiledModel compiled = CompileModel(model, FastShardedOptions(PcsKind::kKzg));
  const ZkmlProof proof =
      Prove(compiled, QuantizeTensor(SyntheticInput(model, 500), model.quant));
  // The proof ends with one witness point per rotation, rotation 0 then 1;
  // flipping a compressed-point prefix byte negates that point.
  for (const auto& [rotation, from_end] : {std::pair<int, size_t>{0, 66}, {1, 33}}) {
    ZkmlProof forged = proof;
    ASSERT_GE(forged.bytes.size(), from_end);
    forged.bytes[forged.bytes.size() - from_end] ^= 0x01;
    const VerifyResult r =
        VerifyDetailed(compiled.pk.vk, *compiled.pcs, forged.instance, forged.bytes);
    ASSERT_FALSE(r.ok()) << "negated witness point at rotation " << rotation << " accepted";
    EXPECT_EQ(r.stage, VerifyStage::kPcsOpening) << r.ToString();
    EXPECT_EQ(r.status.code(), StatusCode::kVerifyFailed) << r.ToString();
    EXPECT_NE(r.status.message().find("opening at rotation " + std::to_string(rotation) + ":"),
              std::string::npos)
        << r.ToString();
  }
}

TEST(ShardedForgeryTest2, KzgForgedOpeningCaughtOnlyByAggregateCheck) {
  // KZG-specific: negate a shard proof's final witness point W by flipping
  // the compressed-point prefix byte (2 <-> 3). The forged point deserializes
  // cleanly and every inline shard check passes — the per-shard pairing check
  // is deferred — so only the aggregate RLC pairing check can catch it. This
  // pins down that the deferred path really gates acceptance.
  const Model model = TinyChainModel();
  const StatusOr<CompiledPlan> compiled =
      CompilePlan(model, {2, 1}, FastShardedOptions(PcsKind::kKzg));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 23), model.quant);
  const StatusOr<PlanProof> proof = ProvePlan(*compiled, {input});
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();

  PlanArtifact forged = proof->artifact;
  std::vector<uint8_t>& pb = forged.proofs[0];
  ASSERT_GE(pb.size(), 33u);
  pb[pb.size() - 33] ^= 0x01;  // compressed G1 prefix: y -> -y
  const VerifyResult r = VerifyPlan(*compiled, proof->instance, EncodePlanProof(forged));
  ASSERT_FALSE(r.ok()) << "negated KZG witness point accepted";
  EXPECT_EQ(r.stage, VerifyStage::kAggregate) << r.ToString();
  EXPECT_NE(r.ToString().find("shard 0/2"), std::string::npos) << r.ToString();
}

}  // namespace
}  // namespace zkml
