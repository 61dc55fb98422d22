#include "src/compiler/compiler.h"

#include "src/base/check.h"

namespace zkml {
namespace {

int CeilLog2(size_t n) {
  int k = 0;
  while ((static_cast<size_t>(1) << k) < n) {
    ++k;
  }
  return k;
}

void FillStats(const CircuitBuilder& cb, PhysicalLayout* layout) {
  const ConstraintSystem& cs = cb.cs();
  layout->rows_used = cb.RowsUsed();
  layout->min_rows = cb.MinRowsRequired();
  layout->num_instance = cs.num_instance_columns();
  layout->num_advice = cs.num_advice_columns();
  layout->num_fixed = cs.num_fixed_columns();
  layout->num_lookups = cs.lookups().size();
  layout->num_perm = cs.PermutationColumns().size();
  layout->max_degree = cs.MaxDegree();
  layout->num_perm_chunks = cs.NumPermutationChunks();
  layout->ext_k = cs.QuotientExtensionK();
  layout->num_gates = cs.gates().size();
}

}  // namespace

PhysicalLayout SimulateLayout(const Model& model, const GadgetSet& gadgets, int num_columns,
                              const std::vector<ImplChoice>* per_op, size_t batch) {
  ZKML_CHECK_MSG(batch >= 1, "batch must be at least 1");
  PhysicalLayout layout;
  layout.num_columns = num_columns;
  layout.batch = batch;
  layout.gadgets = gadgets;
  if (per_op != nullptr) {
    layout.per_op = *per_op;
  }

  BuilderOptions opts;
  opts.num_io_columns = num_columns;
  opts.quant = model.quant;
  opts.gadgets = gadgets;
  opts.estimate_only = true;
  CircuitBuilder cb(opts);
  Tensor<int64_t> zero_input(model.input_shape);
  // Each lowering pass appends one inference's advice region and instance
  // segment; tables, fixed columns, and cached constants are shared, which is
  // exactly the amortization batching exists to exploit.
  for (size_t i = 0; i < batch; ++i) {
    LowerModel(cb, model, zero_input, per_op);
  }

  FillStats(cb, &layout);
  // FindOptimalK: the smallest power-of-two grid covering gadget rows, lookup
  // tables, constants, and public I/O (paper Algorithm 1, line 12).
  layout.k = CeilLog2(layout.min_rows);
  return layout;
}

BuiltBatchedCircuit BuildBatchedCircuit(const Model& model, const PhysicalLayout& layout,
                                        const std::vector<Tensor<int64_t>>& inputs_q) {
  ZKML_CHECK_MSG(!inputs_q.empty(), "circuit build needs at least one input");
  ZKML_CHECK_MSG(layout.batch == inputs_q.size(),
                 "layout was simulated for a different batch size");
  BuilderOptions opts;
  opts.num_io_columns = layout.num_columns;
  opts.quant = model.quant;
  opts.gadgets = layout.gadgets;
  opts.estimate_only = false;
  opts.k = layout.k;

  BuiltBatchedCircuit built;
  built.builder = std::make_unique<CircuitBuilder>(opts);
  const std::vector<ImplChoice>* per_op = layout.per_op.empty() ? nullptr : &layout.per_op;
  for (const Tensor<int64_t>& input_q : inputs_q) {
    Tensor<Operand> out = LowerModel(*built.builder, model, input_q, per_op);
    Tensor<int64_t> out_q(out.shape());
    for (int64_t i = 0; i < out.NumElements(); ++i) {
      out_q.flat(i) = out.flat(i).q;
    }
    built.outputs_q.push_back(std::move(out_q));
  }
  ZKML_CHECK_MSG(built.builder->MinRowsRequired() <= (static_cast<size_t>(1) << layout.k),
                 "assigned circuit exceeded simulated layout");
  built.num_instance_rows = built.builder->NumInstanceRows();
  return built;
}

}  // namespace zkml
