// The compiler's physical-layout machinery (paper §7.3): row-exact layout
// simulation via the shared lowering path, the 2^k row-count rule, and
// construction of fully assigned circuits for keygen/proving.
#ifndef SRC_COMPILER_COMPILER_H_
#define SRC_COMPILER_COMPILER_H_

#include <memory>
#include <vector>

#include "src/gadgets/circuit_builder.h"
#include "src/layers/lowering.h"
#include "src/model/graph.h"

namespace zkml {

// A fully specified circuit layout plus the statistics the cost model needs.
struct PhysicalLayout {
  int num_columns = 10;  // io (advice) columns
  int k = 0;             // rows = 2^k
  size_t batch = 1;      // independent inferences laid out in this circuit
  GadgetSet gadgets;
  std::vector<ImplChoice> per_op;  // empty => uniform default choice

  // Simulation results.
  size_t rows_used = 0;       // gadget rows before padding
  size_t min_rows = 0;        // including tables/instance/constants
  size_t num_instance = 0;    // N_i
  size_t num_advice = 0;      // N_a (committed advice columns)
  size_t num_fixed = 0;
  size_t num_lookups = 0;     // N_lk
  size_t num_perm = 0;        // N_pm
  int max_degree = 0;         // d_max
  size_t num_perm_chunks = 0;
  int ext_k = 0;
  size_t num_gates = 0;
};

// Runs the lowering in estimate mode and fills in exact row counts and
// constraint-system statistics. Also chooses k = FindOptimalK (the smallest
// power of two covering rows and tables). With batch > 1 the model is lowered
// `batch` times into the same grid: fixed columns, lookup tables, and cached
// constants are shared, advice regions replicate, and the instance column is
// the concatenation of per-inference [input ‖ output] segments.
PhysicalLayout SimulateLayout(const Model& model, const GadgetSet& gadgets, int num_columns,
                              const std::vector<ImplChoice>* per_op = nullptr, size_t batch = 1);

// A built circuit: constraint system + full assignment proving
// `inputs.size()` independent inferences (one for a single proof). The
// instance column holds their [input ‖ output] segments back to back.
struct BuiltBatchedCircuit {
  std::unique_ptr<CircuitBuilder> builder;
  std::vector<Tensor<int64_t>> outputs_q;  // one per inference
  size_t num_instance_rows = 0;
};

// Assign-mode build: lowers the model once per input into a single circuit at
// `layout` (which must have been simulated with layout.batch ==
// inputs.size()). Aborts if the assignment does not fit the layout (cannot
// happen when the layout came from SimulateLayout on this model).
BuiltBatchedCircuit BuildBatchedCircuit(const Model& model, const PhysicalLayout& layout,
                                        const std::vector<Tensor<int64_t>>& inputs_q);

}  // namespace zkml

#endif  // SRC_COMPILER_COMPILER_H_
