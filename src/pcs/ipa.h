// Inner-product-argument polynomial commitments (Bulletproofs-style, as used
// by halo2's transparent backend). No trusted setup; commitments are Pedersen
// vector commitments over deterministically derived bases. Verification
// performs O(n) group operations — the reason the paper's Table 7 shows
// slower IPA verification than KZG.
//
// The Pedersen bases are structureless, so they serve as the Lagrange basis
// of the setup's size-n domain directly: a polynomial commits as
// sum_i p(omega^i)·g_i, and the argument runs on evaluations, proving
// <a, b> = y for a = the evaluations and b_i = L_i(z). n is the setup's,
// never the proof's: with a second size, one commitment would open to two
// polynomials (the interpolants of its values over either domain).
//
// Zero-knowledge blinding terms are omitted (DESIGN.md §2): the argument is
// complete and binding; hiding is not exercised by the paper's evaluation.
#ifndef SRC_PCS_IPA_H_
#define SRC_PCS_IPA_H_

#include <memory>
#include <vector>

#include "src/pcs/pcs.h"

namespace zkml {

struct IpaSetup {
  std::vector<G1Affine> g;  // Pedersen bases, one per domain point; n (a power of two)
  G1Affine u;               // auxiliary generator binding the claimed evaluation

  static IpaSetup Create(size_t n, uint64_t seed);
};

class IpaPcs : public Pcs {
 public:
  explicit IpaPcs(std::shared_ptr<const IpaSetup> setup)
      : Pcs(setup->g.size()), setup_(std::move(setup)) {}

  const IpaSetup& setup() const { return *setup_; }

  PcsKind kind() const override { return PcsKind::kIpa; }
  std::vector<G1Affine> LagrangeBasis(const EvaluationDomain& /*domain*/) const override {
    return setup_->g;
  }

  void OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                 Transcript* transcript, std::vector<uint8_t>* proof_out) const override;
  Status VerifyOpenings(const std::vector<PcsOpeningBatch>& batches, Transcript* transcript,
                        const std::vector<uint8_t>& proof, size_t* offset) const override;

 private:
  std::shared_ptr<const IpaSetup> setup_;
};

}  // namespace zkml

#endif  // SRC_PCS_IPA_H_
