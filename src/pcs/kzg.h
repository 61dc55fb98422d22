// KZG polynomial commitments over BN254 G1.
//
// SUBSTITUTION (see DESIGN.md §2): the original verifier checks the opening
// equation e(C - y·G, H) = e(W, (tau - z)·H) with a pairing. Implementing the
// BN254 pairing (Fp12 tower, Miller loop) from scratch offline is out of
// scope, so our verifier — which in this repo also generated the local,
// insecure trusted setup — checks the *same relation in the exponent* using
// the trapdoor: C - y·G - (tau - z)·W == 0. Prover work and proof bytes are
// identical to the pairing-based check; the verifier's group work is one MSM
// over all of a proof's claims where a pairing verifier would run two MSMs
// and one two-pairing product.
#ifndef SRC_PCS_KZG_H_
#define SRC_PCS_KZG_H_

#include <memory>
#include <vector>

#include "src/pcs/pcs.h"

namespace zkml {

struct KzgSetup {
  std::vector<G1Affine> powers;  // tau^i * G for i < max_len
  Fr tau;                        // trapdoor, used only by the simulated pairing check

  // Local (insecure, test/benchmark-only) setup. The real system uses the
  // Perpetual Powers of Tau ceremony output. The trapdoor is drawn from the
  // seed before the powers, so setups sharing a seed share tau regardless of
  // max_len — per-shard setups of different sizes aggregate soundly. The
  // powers are max_len products of the one generator G, computed in one
  // MulGenerator call from its process-wide fixed-base table.
  static KzgSetup Create(size_t max_len, uint64_t seed);

  // The Lagrange bases [L_i(tau)]G of the radix-2 domain of size n (a power
  // of two, <= powers.size()), formed from the trapdoor as halo2's
  // ParamsKZG::setup forms its g_lagrange:
  //   L_i(tau) = omega^i (tau^n - 1) / (n (tau - omega^i)),
  // one batch inversion for the n denominators, then one MulGenerator call.
  // The points equal LagrangeBasesFromMonomial of the size-n prefix of
  // `powers` (the same group elements, so the same bytes) at the cost of n
  // generator products instead of a G1 inverse FFT.
  std::vector<G1Affine> LagrangeBasis(size_t n) const;
};

// One opening batch's claim, kept as its terms so that any number of claims
// fold into a single MSM. With C* = sum_i scalars[i]·commitments[i] (the
// scalars are the batch's v^i), the claim is the pairing equation
// e(C* - y*·G, H) = e(W, (tau - z)·H), i.e. in the exponent
// C* - y*·G - (tau - z)·W == 0.
struct KzgOpeningClaim {
  std::vector<G1Affine> commitments;
  std::vector<Fr> scalars;
  Fr y_star;   // sum_i v^i·y_i
  G1Affine w;  // witness commitment
  Fr point;    // opening point z
  size_t tag = 0;  // who the claim came from: a proof, shard or batch index
};

// Collects opening claims, from one proof or across many (one per shard in
// sharded verification, one per proof in cross-proof batch verification),
// and discharges them with a single random-linear-combination check — the
// analog of one batched pairing instead of one per claim. Not thread-safe;
// accumulate from one thread.
class KzgAccumulator {
 public:
  // Tag stamped onto subsequently Add()ed claims; callers verifying several
  // proofs into one accumulator set this to the proof's index before each
  // proof so a rejection can name the culprit.
  void SetTag(size_t tag) { tag_ = tag; }

  void Add(KzgOpeningClaim claim) {
    claim.tag = tag_;
    claims_.push_back(std::move(claim));
  }
  size_t size() const { return claims_.size(); }

  // Draws an RLC challenge r from a transcript over every claim's terms and
  // accepts iff ONE MSM is the identity:
  //   sum_j r^j·(C*_j - y*_j·G - (tau - z_j)·W_j)
  //     = sum_j sum_i r^j·v_j^i·C_ji  -  (sum_j r^j·y*_j)·G  +  sum_j r^j·(z_j - tau)·W_j,
  // which is A - tau·B for A = sum_j r^j·(C*_j - y*_j·G + z_j·W_j) and
  // B = sum_j r^j·W_j, the two sides of the batched pairing
  // e(A, H) = e(B, tau·H). A cheat in any single claim survives only with
  // probability |claims|/|Fr|. On failure, each claim is re-checked on its
  // own (diagnostic only — these extra MSMs run on the rejection path) and
  // the tags of the failing claims are reported in the error message and,
  // when `blamed_tags` is non-null, appended there.
  Status Check(const KzgSetup& setup, std::vector<size_t>* blamed_tags = nullptr) const;

 private:
  std::vector<KzgOpeningClaim> claims_;
  size_t tag_ = 0;
};

class KzgPcs : public Pcs {
 public:
  explicit KzgPcs(std::shared_ptr<const KzgSetup> setup) : setup_(std::move(setup)) {}

  // Deferred-verification mode: VerifyOpenings records the proof's opening
  // claims into `defer` (not owned) and reports success; the caller must
  // discharge the accumulator with KzgAccumulator::Check. Without `defer`,
  // VerifyOpenings checks the claims through a local accumulator of its own.
  // Proving is unaffected.
  KzgPcs(std::shared_ptr<const KzgSetup> setup, KzgAccumulator* defer)
      : setup_(std::move(setup)), defer_(defer) {}

  const KzgSetup& setup() const { return *setup_; }
  const std::shared_ptr<const KzgSetup>& shared_setup() const { return setup_; }

  PcsKind kind() const override { return PcsKind::kKzg; }
  const std::vector<G1Affine>& bases() const override { return setup_->powers; }
  std::vector<G1Affine> LagrangeBasis(size_t n) const override {
    return setup_->LagrangeBasis(n);
  }

  void OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                 Transcript* transcript, std::vector<uint8_t>* proof_out) const override;
  Status VerifyOpenings(const std::vector<PcsOpeningBatch>& batches, Transcript* transcript,
                        const std::vector<uint8_t>& proof, size_t* offset) const override;

 private:
  std::shared_ptr<const KzgSetup> setup_;
  KzgAccumulator* defer_ = nullptr;
};

}  // namespace zkml

#endif  // SRC_PCS_KZG_H_
