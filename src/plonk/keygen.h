// Key generation: preprocesses the circuit-fixed data (fixed columns,
// permutation sigma polynomials, Lagrange selector polynomials) into a
// proving key, and their commitments into a verifying key.
#ifndef SRC_PLONK_KEYGEN_H_
#define SRC_PLONK_KEYGEN_H_

#include <memory>
#include <vector>

#include "src/pcs/pcs.h"
#include "src/plonk/assignment.h"
#include "src/plonk/constraint_system.h"
#include "src/plonk/quotient.h"
#include "src/poly/domain.h"

namespace zkml {

struct VerifyingKey {
  ConstraintSystem cs;
  int k = 0;
  std::vector<PcsCommitment> fixed_commitments;
  std::vector<PcsCommitment> sigma_commitments;
  std::vector<Column> perm_columns;
  // Expected length of the public instance vector (used rows of the instance
  // column). 0 means "not recorded" (hand-built circuits); the zkml compiler
  // always fills it in, and zkml::Verify enforces it before the transcript so
  // a wrong-sized instance cannot bind to the wrong statement.
  size_t num_instance_rows = 0;
};

struct ProvingKey {
  VerifyingKey vk;
  std::shared_ptr<const EvaluationDomain> domain;  // the Pcs's, shared

  // Fixed columns: value (grid) form and coefficient form.
  std::vector<std::vector<Fr>> fixed_values;
  std::vector<std::vector<Fr>> fixed_coeffs;

  // Permutation sigma polynomials, one per permutation column.
  std::vector<std::vector<Fr>> sigma_values;
  std::vector<std::vector<Fr>> sigma_coeffs;

  // l_0, l_{n-1} coefficient vectors (the prover coset-FFTs them on demand).
  std::vector<Fr> l0_coeffs;
  std::vector<Fr> llast_coeffs;

  // Constraint expressions compiled once into flat calculation plans; the
  // prover's quotient stage executes these instead of re-walking the ASTs.
  std::shared_ptr<const QuotientEvaluator> quotient;
};

// Builds keys from the constraint system and a fixed-column/copy-constraint
// assignment (advice and instance contents are ignored). The assignment's row
// count must be a power of two matching 2^k.
ProvingKey Keygen(const ConstraintSystem& cs, const Assignment& assignment, const Pcs& pcs,
                  int k);

}  // namespace zkml

#endif  // SRC_PLONK_KEYGEN_H_
