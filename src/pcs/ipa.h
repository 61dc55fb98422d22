// Inner-product-argument polynomial commitments (Bulletproofs-style, as used
// by halo2's transparent backend). No trusted setup; commitments are Pedersen
// vector commitments over deterministically derived bases. Verification
// performs O(n) group operations — the reason the paper's Table 7 shows
// slower IPA verification than KZG.
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
  std::vector<G1Affine> g;  // Pedersen basis, length = max_len (power of two)
  G1Affine u;               // auxiliary generator binding the claimed evaluation

  static IpaSetup Create(size_t max_len, uint64_t seed);
};

class IpaPcs : public Pcs {
 public:
  explicit IpaPcs(std::shared_ptr<const IpaSetup> setup) : setup_(std::move(setup)) {}

  PcsKind kind() const override { return PcsKind::kIpa; }
  const std::vector<G1Affine>& bases() const override { return setup_->g; }
  // Pedersen bases have no trapdoor to evaluate at, so the size-n basis is
  // the G1 inverse FFT of the first n bases.
  std::vector<G1Affine> LagrangeBasis(size_t n) const override {
    return LagrangeBasesFromMonomial(
        std::vector<G1Affine>(setup_->g.begin(), setup_->g.begin() + n));
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
