// bench_paper [table...]: regenerates the paper's quantitative evaluation
// (DESIGN.md §3) on the scaled model zoo, e.g. `bench_paper table6 table12`.
// No names runs every table; an unknown name prints the valid ones and exits
// 1. Each table prints as markdown on stdout, then its checks: one per shape
// claim (an ordering, a ratio band, a crossover), with the number it rests on
// and whether it passes. BENCH_paper.json in the working directory gets the
// host stamp and every row: (table, model, condition, metric), the value,
// its unit and the paper's value or band. Checks report and do not gate; the
// exit code is 2 when any proof failed to verify.
#include <cmath>
#include <initializer_list>
#include <limits>

#include "src/compiler/compiler.h"
#include "src/model/float_executor.h"
#include "src/model/model_builder.h"

#include "bench/bench_util.h"

namespace zkml {
namespace {

// One row of BENCH_paper.json: a measured quantity of a table line, or a
// check (condition "check", `pass` 0 or 1) whose value is the number a shape
// claim rests on. `paper` is the paper's value or band, empty where the paper
// gives none.
struct Row {
  template <typename T>
  Row(const char* metric, T value, const char* unit = "", const char* paper = "")
      : metric(metric), value(static_cast<double>(value)), unit(unit), paper(paper) {}
  std::string table, model, condition, metric;
  double value;
  std::string unit, paper;
  int pass = -1;
};

std::string Cell(const Row& m) {
  char buf[48];
  const bool whole = m.value == std::floor(m.value) || std::fabs(m.value) >= 100;
  std::snprintf(buf, sizeof(buf), whole ? "%.0f%s%s" : "%.3g%s%s", m.value,
                m.unit.empty() ? "" : " ", m.unit.c_str());
  return buf + (m.paper.empty() ? "" : " (paper: " + m.paper + ")");
}

// Everything one run measured, in measurement order. Each line prints as a
// markdown table line when it is recorded, under a new header whenever its
// metrics differ from the line before.
struct Report {
  std::string table;  // the table now running
  std::string header;
  std::string checks;  // the running table's checks, as markdown
  std::vector<Row> rows;

  void Line(const std::string& model, const std::string& condition,
            std::initializer_list<Row> metrics) {
    std::string names = "| model | condition |";
    std::string rule = "|---|---|";
    std::string line = "| " + model + " | " + condition + " |";
    for (Row row : metrics) {
      names += " " + row.metric + " |";
      rule += "---|";
      line += " " + Cell(row) + " |";
      row.table = table;
      row.model = model;
      row.condition = condition;
      rows.push_back(row);
    }
    if (names != header) {
      std::printf("\n%s\n%s\n", names.c_str(), rule.c_str());
      header = names;
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  void Claim(const std::string& name, double value, bool pass, const char* paper) {
    Row row(name.c_str(), value, "", paper);
    row.table = table;
    row.condition = "check";
    row.pass = pass ? 1 : 0;
    rows.push_back(row);
    checks += "- check: " + name + " = " + Cell(row) + (pass ? ", pass\n" : ", FAIL\n");
  }
  // NaN when `in_table` did not run in this process.
  double Value(const std::string& in_table, const std::string& model, const char* metric) const {
    for (const Row& r : rows) {
      if (r.table == in_table && r.model == model && r.metric == metric) {
        return r.value;
      }
    }
    return std::numeric_limits<double>::quiet_NaN();
  }
};

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

// §3 toy example: the cheapest way to perform ReLU depends *globally* on how
// many ReLUs the model performs. With few ReLUs, paying grid rows for a
// lookup table loses to bit decomposition; with many, the table wins. The
// sweep reports rows and estimated proving cost for both implementations,
// exposing the crossover the optimizer exploits: the lookup table forces the
// grid to at least 2^10 rows, bit decomposition pays table_bits+2 cells per
// ReLU instead — cheap once, expensive in bulk.

// A model that applies ReLU `count` times to a small vector (plus one FC so
// the circuit is non-trivial).
Model MakeReluModel(int count) {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  ModelBuilder mb("relus", Shape({16}), qp, 5);
  int t = mb.FullyConnected(mb.input(), 16);
  for (int i = 0; i < count; ++i) {
    t = mb.Activation(t, NonlinFn::kRelu);
    // A cheap linear op between activations so they are not fused away
    // logically (keeps one ReLU per op in the statistics).
    if (i + 1 < count) {
      t = mb.Add(t, t);
    }
  }
  return mb.Finish(t);
}

void Section3(Report& r) {
  const HardwareProfile& hw = HardwareProfile::Cached();
  constexpr int kColumns = 12;
  for (int count : {1, 4, 16, 64, 256}) {
    const Model model = MakeReluModel(count);
    PhysicalLayout with_table, with_bits;
    for (PhysicalLayout* layout : {&with_table, &with_bits}) {
      GadgetSet gs = GadgetSetForModel(model);
      gs.relu_lookup = layout == &with_table;
      gs.relu_bits = layout == &with_bits;
      *layout = SimulateLayout(model, gs, kColumns);
    }
    const double cost_table = EstimateProvingCost(with_table, hw, PcsKind::kKzg).total_seconds;
    const double cost_bits = EstimateProvingCost(with_bits, hw, PcsKind::kKzg).total_seconds;
    r.Line(std::to_string(count) + " ReLUs", "12 columns",
           {{"table_rows", with_table.min_rows}, {"table_k", with_table.k},
            {"table_estimate_s", cost_table, "s"}, {"bits_rows", with_bits.min_rows},
            {"bits_k", with_bits.k}, {"bits_estimate_s", cost_bits, "s"},
            {"table_wins", cost_table < cost_bits}});
  }
  const bool crossover = r.Value(r.table, "1 ReLUs", "table_wins") == 0 &&
                         r.Value(r.table, "256 ReLUs", "table_wins") == 1;
  r.Claim("crossover: bits win at 1 ReLU, the table at 256", crossover, crossover, "crossover");
}

// Tables 2-3: model and layer support. Prior work (ZEN/vCNN/zkCNN) handles
// CNNs only; ZKML's gadget menu covers transformers, recommenders and
// diffusion too. Support is demonstrated constructively: every zoo model is
// lowered, and its line counts the layer families and lookups its circuit
// exercised.
void Tables2And3(Report& r) {
  const std::vector<Model> models = AllZooModels();
  size_t lowered = 0;
  for (const Model& model : models) {
    auto count = [&](std::initializer_list<OpType> types) {
      return std::count_if(model.ops.begin(), model.ops.end(), [&](const Op& op) {
        return std::find(types.begin(), types.end(), op.type) != types.end();
      });
    };
    // Prove support constructively: simulate the layout (runs the lowering).
    const PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 16);
    r.Line(model.name, "16 columns",
           {{"params", model.NumParameters()}, {"flops", model.ApproxFlops()},
            {"conv", count({OpType::kConv2D})}, {"depthwise", count({OpType::kDepthwiseConv2D})},
            {"fc", count({OpType::kFullyConnected})},
            {"batch_matmul", count({OpType::kBatchMatMul})},
            {"softmax", count({OpType::kSoftmax})},
            {"pool", count({OpType::kMaxPool2D, OpType::kAvgPool2D})},
            {"layernorm", count({OpType::kLayerNorm})}, {"lookups", layout.num_lookups},
            {"rows", layout.rows_used}});
    lowered += layout.rows_used > 0 ? 1 : 0;
  }
  r.Claim("every model lowers (models lowered)", lowered, lowered == models.size(), "all");
}

// Tables 6 and 7: end-to-end proving time, verification time and proof size
// for every zoo model under one backend. Expect IPA to verify slower than KZG
// (O(n) group operations) and to give generally larger proofs.
void EndToEnd(Report& r, PcsKind backend) {
  const bool kzg = backend == PcsKind::kKzg;
  double min_prove_over_verify = std::numeric_limits<double>::infinity();
  // IPA is compared with KZG when Table 6 ran first in this process.
  const bool vs_kzg = !kzg && std::isfinite(r.Value("table6", "mnist", "prove_s"));
  std::vector<double> over_table6;
  for (const Model& model : AllZooModels()) {
    const E2eMeasurement m = MeasureEndToEnd(model, BenchOptions(backend));
    const std::string& name = model.name;
    const char* paper_prove =
        !kzg ? "" : name == "mnist" ? "2.45 s" : name == "gpt2" ? "3652 s" : "";
    r.Line(name, kzg ? "kzg" : "ipa",
           {{"prove_s", m.prove_seconds, "s", paper_prove},
            {"verify_s", m.verify_seconds, "s", !kzg && name == "resnet18" ? "0.20 s" : ""},
            {"proof_bytes", m.proof_bytes, "B", kzg ? "6.5-28 kB" : ""},
            {"columns", m.columns}, {"k", m.k}});
    min_prove_over_verify = std::min(min_prove_over_verify, m.prove_seconds / m.verify_seconds);
    over_table6.push_back(m.prove_seconds / r.Value("table6", name, "prove_s"));
  }
  r.Claim("proving / verification time, min over models", min_prove_over_verify,
          min_prove_over_verify >= 10, "s-to-h proving, ms-to-s verification");
  const double vgg = r.Value(r.table, "vgg16", "prove_s") / r.Value(r.table, "resnet18", "prove_s");
  r.Claim("vgg16 / resnet18 proving time", vgg, vgg > 1, "~11x");
  if (vs_kzg) {
    const double verify =
        r.Value("table7", "resnet18", "verify_s") / r.Value("table6", "resnet18", "verify_s");
    r.Claim("resnet18 IPA / KZG verification time", verify, verify > 1, "0.20 s / 12 ms = 17x");
    const double prove = Median(over_table6);
    r.Claim("IPA / KZG proving time, median", prove, prove >= 0.9 && prove <= 1.1, "within +-10%");
  }
}

// Table 8: FP32 vs ZKML (fixed-point circuit semantics) accuracy for the vision
// classifiers.
//
// SUBSTITUTION (DESIGN.md item 5): no MNIST/CIFAR data or trained weights
// exist offline, and an untrained random classifier has near-tie logits no
// quantization could preserve. We therefore fit the final layer as a
// nearest-prototype classifier over the (random) backbone's features: class c
// scores <f(x), f(p_c)>, giving the model genuine decision margins like a
// trained network. The dataset is prototypes plus noise with ground-truth
// labels; FP32 and ZKML accuracies are both measured against those labels —
// exactly the quantities in the paper's Table 8.
void Table8(Report& r) {
  constexpr int kSamples = 400;
  double worst = 0;
  for (const char* name : {"mnist", "vgg16", "resnet18"}) {
    Model model = MakeZooModel(name);

    // Feature extractor: the model minus its final fully-connected layer.
    Model features = model;
    features.ops.pop_back();
    features.output_tensor = model.ops.back().inputs[0];

    // Fit the head on *centered* prototype features (ReLU backbones emit
    // positively correlated features; centering restores discrimination):
    // weight row c = 8 * (f(p_c) - mu) / ||f(p_c) - mu||^2, bias -<w_c, mu>.
    Tensor<float>& w = model.weights[static_cast<size_t>(model.ops.back().weights[0])];
    Tensor<float>& b = model.weights[static_cast<size_t>(model.ops.back().weights[1])];
    const int64_t num_classes = w.shape().dim(0);
    const int64_t feat_dim = w.shape().dim(1);
    std::vector<Tensor<float>> prototypes;
    std::vector<Tensor<float>> feats;
    std::vector<double> mu(static_cast<size_t>(feat_dim), 0.0);
    for (int64_t c = 0; c < num_classes; ++c) {
      prototypes.push_back(SyntheticInput(model, 7000 + static_cast<uint64_t>(c)));
      feats.push_back(RunFloat(features, prototypes.back()));
      for (int64_t j = 0; j < feat_dim; ++j) {
        mu[static_cast<size_t>(j)] += feats.back().flat(j) / num_classes;
      }
    }
    for (int64_t c = 0; c < num_classes; ++c) {
      double norm_sq = 1e-9;
      for (int64_t j = 0; j < feat_dim; ++j) {
        const double d = feats[static_cast<size_t>(c)].flat(j) - mu[static_cast<size_t>(j)];
        norm_sq += d * d;
      }
      double dot_mu = 0.0;
      for (int64_t j = 0; j < feat_dim; ++j) {
        const double d = feats[static_cast<size_t>(c)].flat(j) - mu[static_cast<size_t>(j)];
        w.at({c, j}) = static_cast<float>(8.0 * d / norm_sq);
        dot_mu += 8.0 * d / norm_sq * mu[static_cast<size_t>(j)];
      }
      b.at({c}) = static_cast<float>(-dot_mu);
    }

    // Dataset: prototype + input noise, label = prototype class.
    Rng rng(4242);
    int fp32_correct = 0;
    int zkml_correct = 0;
    for (int s = 0; s < kSamples; ++s) {
      const int64_t label = static_cast<int64_t>(rng.NextBelow(num_classes));
      Tensor<float> x = prototypes[static_cast<size_t>(label)].Materialize();
      for (int64_t j = 0; j < x.NumElements(); ++j) {
        x.flat(j) += static_cast<float>(rng.NextGaussian() * 0.08);
      }
      auto argmax = [](const Tensor<float>& t) {
        int64_t a = 0;
        for (int64_t i = 1; i < t.NumElements(); ++i) {
          if (t.flat(i) > t.flat(a)) {
            a = i;
          }
        }
        return a;
      };
      fp32_correct += argmax(RunFloat(model, x)) == label ? 1 : 0;
      zkml_correct += argmax(RunQuantizedF(model, x)) == label ? 1 : 0;
    }
    const double fp32_acc = 100.0 * fp32_correct / kSamples;
    const double zkml_acc = 100.0 * zkml_correct / kSamples;
    r.Line(name, "400 samples",
           {{"fp32_accuracy", fp32_acc, "%"},
            {"zkml_accuracy", zkml_acc, "%"},
            {"difference", zkml_acc - fp32_acc, "%", "<=0.01%"}});
    worst = std::max(worst, std::fabs(zkml_acc - fp32_acc));
  }
  // One sample is 0.25 points, so the paper's 0.01% is below resolution.
  r.Claim("largest ZKML vs FP32 gap, points (band: 1 = 4 samples)", worst, worst <= 1, "<=0.01%");
}

// The gadget menu without ZKML's extra implementations: dot-product rows
// emulate all arithmetic, no bias chaining, no dedicated square.
GadgetSet FixedGadgets(const Model& model) {
  GadgetSet gs = GadgetSetForModel(model);
  gs.packed_arith = false;
  gs.dot_bias_chaining = false;
  gs.dedicated_square = false;
  return gs;
}

// Table 9: ZKML vs prior work on CIFAR-10-class CNNs. SUBSTITUTION
// (DESIGN.md): zkCNN (GKR) and vCNN (QAP) are different proof systems we do
// not reimplement; instead the "prior-work-style" baseline runs the same CNN
// through our stack restricted to prior-work techniques — bit-decomposition
// ReLU, dot-product-only arithmetic, no bias chaining, fixed narrow layout —
// which is the comparison axis ZKML's compiler controls.
PhysicalLayout PriorWorkLayout(const Model& model) {
  GadgetSet gs = FixedGadgets(model);
  gs.relu_lookup = false;
  gs.relu_bits = true;
  return SimulateLayout(model, gs, model.quant.table_bits + 2);
}

void Table9(Report& r) {
  for (const char* name : {"resnet18", "vgg16"}) {
    const E2eMeasurement m = MeasureEndToEnd(MakeZooModel(name), BenchOptions(PcsKind::kKzg));
    r.Line(name, "zkml",
           {{"prove_s", m.prove_seconds, "s"}, {"verify_s", m.verify_seconds, "s"},
            {"proof_bytes", m.proof_bytes, "B"}});
  }

  // Baseline on VGG (the model prior work evaluates).
  const Model model = MakeZooModel("vgg16");
  const E2eMeasurement base =
      MeasureProvingAtLayout(model, PriorWorkLayout(model), PcsKind::kKzg, 1);
  r.Line("vgg16", "prior-work style",
         {{"prove_s", base.prove_seconds, "s", "zkCNN 88.3 s vs ZKML 52.9 s"},
          {"verify_s", base.verify_seconds, "s", "zkCNN 5x slower"},
          {"proof_bytes", base.proof_bytes, "B", "zkCNN 22x larger"}});
  // Value finds the zkml lines, recorded first.
  const double slower = base.prove_seconds / r.Value(r.table, "vgg16", "prove_s");
  r.Claim("prior-work style / ZKML proving time, vgg16", slower, slower > 1, "88.3 / 52.9 = 1.7x");
}

// Tables 10 and 11: per model, proving at the optimizer's layout against a
// restricted one; returns the improvements in percent.
std::vector<double> VersusRestricted(Report& r, const std::vector<Model>& models,
                                     const char* condition, const std::vector<const char*>& papers,
                                     PhysicalLayout (*restricted)(const Model&)) {
  std::vector<double> improvements;
  for (size_t i = 0; i < models.size(); ++i) {
    const Model& model = models[i];
    const double zkml_s = MeasureEndToEnd(model, BenchOptions(PcsKind::kKzg)).prove_seconds;
    const double fixed_s =
        MeasureProvingAtLayout(model, restricted(model), PcsKind::kKzg).prove_seconds;
    improvements.push_back(100.0 * (fixed_s - zkml_s) / zkml_s);
    r.Line(model.name, condition,
           {{"prove_zkml_s", zkml_s, "s"}, {"prove_fixed_s", fixed_s, "s"},
            {"improvement", improvements.back(), "%", papers[i]}});
  }
  return improvements;
}

// Table 10: proving time with the optimizer's layout vs a fixed configuration
// (one column count for every model, default gadget choices). The paper fixes
// 40 advice columns; scaled models use 24.
void Table10(Report& r) {
  const std::vector<Model> models = AllZooModels();
  const std::vector<double> improvements = VersusRestricted(
      r, models, "fixed 24 columns", std::vector<const char*>(models.size(), "23-131%"),
      [](const Model& model) { return SimulateLayout(model, GadgetSetForModel(model), 24); });
  const double median = Median(improvements);
  r.Claim("median improvement over the zoo, %", median, median >= 23 && median <= 131, "23-131%");
}

// Table 11: proving time with ZKML's full gadget menu vs a fixed set of
// gadgets (FixedGadgets). The layout optimizer still sweeps columns in both
// modes, isolating the value of the extra gadget implementations.
PhysicalLayout BestFixedGadgetLayout(const Model& model) {
  double best_cost = std::numeric_limits<double>::infinity();
  PhysicalLayout best;
  for (int n = 8; n <= 32; n += 4) {
    PhysicalLayout layout = SimulateLayout(model, FixedGadgets(model), n);
    if (layout.k > 15) {
      continue;
    }
    const double cost =
        EstimateProvingCost(layout, HardwareProfile::Cached(), PcsKind::kKzg).total_seconds;
    if (cost < best_cost) {
      best = layout;
      best_cost = cost;
    }
  }
  return best;
}

void Table11(Report& r) {
  const std::vector<Model> models = {MakeZooModel("mnist"), MakeZooModel("dlrm"),
                                     MakeZooModel("resnet18")};
  const std::vector<const char*> papers = {"+148%", "+2399%", "+1436%"};
  const std::vector<double> improvements =
      VersusRestricted(r, models, "no extra gadgets", papers, BestFixedGadgetLayout);
  for (size_t i = 0; i < models.size(); ++i) {
    r.Claim("slowdown without extra gadgets, %, " + models[i].name + " (band: >10%, noise)",
            improvements[i], improvements[i] > 10, papers[i]);
  }
}

// Table 12: optimizer runtime with and without plan pruning. Pruning =
// same-implementation-per-layer heuristic plus early exit from the column
// sweep; the non-pruned mode additionally explores per-layer implementation
// deviations. Both must land on the same end configuration.
void Table12(Report& r) {
  const HardwareProfile& hw = HardwareProfile::Cached();
  double min_speedup = std::numeric_limits<double>::infinity();
  int same_plans = 0;
  for (const char* name : {"mnist", "resnet18", "gpt2"}) {
    const Model model = MakeZooModel(name);
    OptimizerOptions opts = BenchOptions(PcsKind::kKzg).optimizer;
    opts.prune = true;
    const OptimizerResult pruned = OptimizeLayout(model, hw, opts);
    opts.prune = false;
    const OptimizerResult full = OptimizeLayout(model, hw, opts);
    const bool same = pruned.best.layout.num_columns == full.best.layout.num_columns &&
                      pruned.best.layout.k == full.best.layout.k &&
                      pruned.best.layout.gadgets == full.best.layout.gadgets;
    const double speedup = full.optimizer_seconds / pruned.optimizer_seconds;
    r.Line(name, "kzg",
           {{"pruned_s", pruned.optimizer_seconds, "s"},
            {"non_pruned_s", full.optimizer_seconds, "s"},
            {"pruned_plans", pruned.plans_evaluated}, {"non_pruned_plans", full.plans_evaluated},
            {"speedup", speedup, "x", "1.4-2.8x"}, {"same_plan", same, "", "1"}});
    min_speedup = std::min(min_speedup, speedup);
    same_plans += same ? 1 : 0;
  }
  r.Claim("pruning speedup, min over models", min_speedup, min_speedup >= 1.4, "1.4-2.8x");
  r.Claim("models where pruning finds the same plan", same_plans, same_plans == 3, "all");
}

// Table 13: proving time with single-row gadgets vs two-row variants of the
// adder, max, and dot-product chips, on a fixed model and 10 columns. The
// paper's finding: multi-row constraints change proving time by only a few
// percent, validating ZKML's single-row "future-proofing" design (§4.2).

// A model exercising all three chips: dot products (FC), sums/means, and max
// (maxpool + softmax shift).
Model MakeMixedModel() {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  ModelBuilder mb("mixed", Shape({8, 8, 2}), qp, 77);
  int t = mb.MaxPool(mb.input(), 2);        // max chip
  t = mb.Reshape(t, Shape({4 * 4 * 2}));
  t = mb.FullyConnected(t, 24);             // dot chip
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 8);
  t = mb.Softmax(t);                        // max + sum + exp chips
  return mb.Finish(t);
}

void Table13(Report& r) {
  constexpr int kColumns = 10;
  const Model model = MakeMixedModel();
  const char* const conditions[] = {"single-row", "multi-row adder", "multi-row max",
                                    "multi-row dot"};
  std::vector<double> seconds;
  for (int i = 0; i < 4; ++i) {
    GadgetSet gs = GadgetSetForModel(model);
    gs.multi_row_sum = i == 1;
    gs.multi_row_max = i == 2;
    gs.multi_row_dot = i == 3;
    PhysicalLayout layout = SimulateLayout(model, gs, kColumns);
    seconds.push_back(MeasureProvingAtLayout(model, layout, PcsKind::kKzg).prove_seconds);
    r.Line("mixed", conditions[i],
           {{"prove_s", seconds.back(), "s", "within 0.2% of single-row"}, {"k", layout.k}});
  }
  const auto [lo, hi] = std::minmax_element(seconds.begin(), seconds.end());
  const double spread = 100.0 * (*hi - *lo) / *lo;
  r.Claim("proving-time spread, % (band: 10%, timing noise)", spread, spread <= 10, "<=0.2%");
}

// Table 14: proving time and proof size when the optimizer targets proving
// time vs proof size (the blockchain-storage objective of §9.4). The
// size-optimized plan minimizes columns at the cost of more rows.
void Table14(Report& r) {
  std::vector<double> shrinks;
  std::vector<double> slowdowns;
  for (const char* name : {"mnist", "vgg16", "resnet18", "twitter", "dlrm"}) {
    const Model model = MakeZooModel(name);
    const E2eMeasurement time_opt = MeasureEndToEnd(model, BenchOptions(PcsKind::kKzg));
    ZkmlOptions sz = BenchOptions(PcsKind::kKzg);
    sz.optimizer.objective = OptimizerOptions::Objective::kProofSize;
    const E2eMeasurement size_opt = MeasureEndToEnd(model, sz);

    shrinks.push_back(static_cast<double>(time_opt.proof_bytes) / size_opt.proof_bytes);
    slowdowns.push_back(size_opt.prove_seconds / time_opt.prove_seconds);
    r.Line(name, "kzg",
           {{"time_opt_prove_s", time_opt.prove_seconds, "s"},
            {"time_opt_bytes", time_opt.proof_bytes, "B"},
            {"size_opt_prove_s", size_opt.prove_seconds, "s"},
            {"size_opt_bytes", size_opt.proof_bytes, "B"},
            {"proof_shrink", shrinks.back(), "x", "1.3-3x"},
            {"prove_slowdown", slowdowns.back(), "x", "1.2-1.7x"}});
  }
  const double shrink = *std::min_element(shrinks.begin(), shrinks.end());
  r.Claim("size-optimized proof shrink, min over models", shrink, shrink >= 1, "1.3-3x");
  const double slowdown = Median(slowdowns);
  r.Claim("size-optimized proving slowdown, median", slowdown, slowdown >= 1, "1.2-1.7x");
}

// §9.4: optimizer runtime vs the cost of exhaustively benchmarking every
// candidate layout by producing a real proof for each. For MNIST the
// exhaustive cost is measured; for GPT-2 it is estimated from the cost model
// (as the paper does), since proving every plan is the very thing the
// optimizer exists to avoid. Also the backend case study (§9.4).
void Section9_4(Report& r) {
  const HardwareProfile& hw = HardwareProfile::Cached();
  auto savings = [&](const char* model, const char* condition, const OptimizerResult& result,
                     double exhaustive, const char* paper) {
    const double x = exhaustive / result.optimizer_seconds;
    r.Line(model, condition,
           {{"optimizer_s", result.optimizer_seconds, "s"}, {"exhaustive_s", exhaustive, "s"},
            {"plans", result.all.size()}, {"savings", x, "x", paper}});
    r.Claim(std::string(model) + " exhaustive / optimizer time (band: >=100x)", x, x >= 100, paper);
  };

  // MNIST: measure both. One proof per plan, since the timer measures this
  // sweep itself.
  const Model mnist = MakeZooModel("mnist");
  OptimizerOptions opts;
  opts.min_columns = 8;
  opts.max_columns = 24;
  opts.max_k = 14;
  const OptimizerResult mnist_result = OptimizeLayout(mnist, hw, opts);
  Timer exhaustive_timer;
  for (const RankedLayout& plan : mnist_result.all) {
    MeasureProvingAtLayout(mnist, plan.layout, PcsKind::kKzg, 1);
  }
  savings("mnist", "measured", mnist_result, exhaustive_timer.ElapsedSeconds(),
          "575x (6.3 s vs 3622 s)");

  // GPT-2: optimizer measured, exhaustive estimated from the cost model.
  const Model gpt2 = MakeZooModel("gpt2");
  opts = BenchOptions(PcsKind::kKzg).optimizer;
  const OptimizerResult gpt2_result = OptimizeLayout(gpt2, hw, opts);
  double exhaustive_estimate = 0;
  for (const RankedLayout& plan : gpt2_result.all) {
    exhaustive_estimate += plan.cost.total_seconds;
  }
  savings("gpt2", "estimated", gpt2_result, exhaustive_estimate, "5900x (185 s vs ~1.1 M s)");

  // Case study: chosen configuration per backend.
  opts.backend = PcsKind::kKzg;
  const PhysicalLayout kzg = OptimizeLayout(gpt2, hw, opts).best.layout;
  opts.backend = PcsKind::kIpa;
  const PhysicalLayout ipa = OptimizeLayout(gpt2, hw, opts).best.layout;
  r.Line("gpt2", "kzg layout", {{"k", kzg.k, "", "25"}, {"columns", kzg.num_columns, "", "13"}});
  r.Line("gpt2", "ipa layout", {{"k", ipa.k, "", "24"}, {"columns", ipa.num_columns, "", "25"}});
  const bool differ = kzg.k != ipa.k || kzg.num_columns != ipa.num_columns;
  r.Claim("gpt2 layout differs between KZG and IPA", differ, differ, "2^25 x 13 vs 2^24 x 25");
}

// §9.5 cost-estimation accuracy: for every candidate physical layout of the
// MNIST model, measure the true proving time and compare against the cost
// model's estimate. Reports whether the top-ranked layout is truly fastest
// and Kendall's rank correlation coefficient, for both backends.
double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = a.size();
  int concordant = 0;
  int discordant = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double x = (a[i] - a[j]) * (b[i] - b[j]);
      if (x > 0) {
        ++concordant;
      } else if (x < 0) {
        ++discordant;
      }
    }
  }
  const int total = static_cast<int>(n * (n - 1) / 2);
  return total == 0 ? 0 : static_cast<double>(concordant - discordant) / total;
}

void Section9_5(Report& r) {
  const HardwareProfile& hw = HardwareProfile::Cached();
  const Model model = MakeZooModel("mnist");
  for (PcsKind backend : {PcsKind::kKzg, PcsKind::kIpa}) {
    OptimizerOptions opts;
    opts.backend = backend;
    opts.min_columns = 8;
    opts.max_columns = 22;
    opts.max_k = 14;
    const OptimizerResult result = OptimizeLayout(model, hw, opts);

    std::vector<double> estimated;
    std::vector<double> measured;
    size_t best_est_idx = 0;
    for (size_t i = 0; i < result.all.size(); ++i) {
      const RankedLayout& plan = result.all[i];
      estimated.push_back(plan.cost.total_seconds);
      measured.push_back(MeasureProvingAtLayout(model, plan.layout, backend).prove_seconds);
      if (estimated[i] < estimated[best_est_idx]) {
        best_est_idx = i;
      }
    }
    const bool kzg = backend == PcsKind::kKzg;
    const char* c = kzg ? "kzg" : "ipa";
    const char* paper_tau = kzg ? "0.89" : "0.88";
    const double tau = KendallTau(estimated, measured);
    const double best_measured = *std::min_element(measured.begin(), measured.end());
    const double top_ranked = measured[best_est_idx] / best_measured;
    r.Line("mnist", c,
           {{"layouts", measured.size()}, {"kendall_tau", tau, "", paper_tau},
            {"fastest_prove_s", best_measured, "s"},
            {"top_ranked_prove_s", measured[best_est_idx], "s", "the fastest"}});
    r.Claim(std::string("Kendall tau, ") + c, tau, tau >= std::stod(paper_tau), paper_tau);
    r.Claim(std::string("top-ranked / fastest proving time (band: 5%), ") + c, top_ranked,
            top_ranked <= 1.05, "top-ranked is fastest");
  }
}

struct Table {
  const char* name;
  const char* title;
  void (*run)(Report&);
};

const Table kTables[] = {
    {"section3", "§3 toy example: ReLU implementation crossover (KZG estimates)", Section3},
    {"table2_3", "Tables 2-3: model/layer support (constructed, not claimed)", Tables2And3},
    {"table6", "Table 6: end-to-end, KZG", [](Report& r) { EndToEnd(r, PcsKind::kKzg); }},
    {"table7", "Table 7: end-to-end, IPA", [](Report& r) { EndToEnd(r, PcsKind::kIpa); }},
    {"table8", "Table 8: accuracy, FP32 vs ZKML (prototype-fitted heads, synthetic data)", Table8},
    {"table9", "Table 9: ZKML vs a prior-work-style baseline (zkCNN/vCNN substituted)", Table9},
    {"table10", "Table 10: optimizer vs a fixed 24-column configuration, KZG", Table10},
    {"table11", "Table 11: full gadget menu vs a fixed gadget set, KZG", Table11},
    {"table12", "Table 12: optimizer runtime, pruned vs non-pruned", Table12},
    {"table13", "Table 13: single-row vs multi-row gadgets (10 columns, KZG)", Table13},
    {"table14", "Table 14: runtime- vs size-optimized proofs, KZG", Table14},
    {"section9_4", "§9.4: optimizer runtime vs exhaustive benchmarking", Section9_4},
    {"section9_5", "§9.5: cost estimator accuracy on MNIST layouts", Section9_5},
};

std::string Quote(const std::string& s) { return obs::Json(s).Dump(); }

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::isfinite(v) ? buf : "null";
}

// One row as a JSON object; a check row also carries "pass".
std::string JsonRecord(const Row& r) {
  return "{\"table\": " + Quote(r.table) + ", \"model\": " + Quote(r.model) +
         ", \"condition\": " + Quote(r.condition) + ", \"metric\": " + Quote(r.metric) +
         ", \"value\": " + Number(r.value) + ", \"unit\": " + Quote(r.unit) +
         ", \"paper\": " + (r.paper.empty() ? "null" : Quote(r.paper)) +
         (r.pass < 0 ? "" : r.pass ? ", \"pass\": true" : ", \"pass\": false") + "}";
}

}  // namespace
}  // namespace zkml

int main(int argc, char** argv) {
  using namespace zkml;
  const std::vector<std::string> wanted(argv + 1, argv + argc);
  for (const std::string& name : wanted) {
    if (std::none_of(std::begin(kTables), std::end(kTables),
                     [&](const Table& t) { return name == t.name; })) {
      std::fprintf(stderr, "unknown table '%s'; valid names:", name.c_str());
      for (const Table& t : kTables) {
        std::fprintf(stderr, " %s", t.name);
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
  }
  Report report;
  for (const Table& t : kTables) {
    if (wanted.empty() || std::find(wanted.begin(), wanted.end(), t.name) != wanted.end()) {
      std::printf("\n## %s (`%s`)\n", t.title, t.name);
      report.table = t.name;
      report.header.clear();
      report.checks.clear();
      t.run(report);
      std::printf("\n%s", report.checks.c_str());
    }
  }
  std::vector<std::string> records;
  for (const Row& r : report.rows) {
    records.push_back(JsonRecord(r));
  }
  const std::string failures = std::to_string(verify_failures);
  if (!WriteBenchJson("BENCH_paper.json", "  \"verify_failures\": " + failures + ",\n", "rows",
                      records)) {
    return 1;
  }
  if (verify_failures != 0) {
    std::fprintf(stderr, "!! %d proof(s) failed to verify\n", verify_failures);
    return 2;
  }
  return 0;
}
