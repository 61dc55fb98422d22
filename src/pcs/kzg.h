// KZG polynomial commitments over BN254 G1.
//
// SUBSTITUTION (see DESIGN.md §2): the original verifier checks the opening
// equation e(C - y·G, H) = e(W, (tau - z)·H) with a pairing. Implementing the
// BN254 pairing (Fp12 tower, Miller loop) from scratch offline is out of
// scope, so our verifier — which in this repo also generated the local,
// insecure trusted setup — checks the *same relation in the exponent* using
// the trapdoor: C - y·G == (tau - z)·W. Prover work, proof bytes, and
// verification asymptotics are identical to the pairing-based check.
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
  // max_len — per-shard setups of different sizes aggregate soundly.
  static KzgSetup Create(size_t max_len, uint64_t seed);
};

// One opening claim captured instead of checked: lhs == (tau - z)·W, the
// exponent form of the pairing equation e(C* - y*·G, H) = e(W, (tau - z)·H).
struct KzgDeferredOpening {
  G1 lhs;      // C* - y*·G for the batch
  G1Affine w;  // witness commitment
  Fr point;    // opening point z
  size_t tag;  // which proof this claim came from (shard/batch index)
};

// Collects deferred openings across many proofs (one per shard in sharded
// verification, one per proof in cross-proof batch verification) and
// discharges them with a single random-linear-combination check — the analog
// of one batched pairing instead of k. Not thread-safe; accumulate from one
// thread.
class KzgAccumulator {
 public:
  // Tag stamped onto subsequently Add()ed claims; callers verifying several
  // proofs into one accumulator set this to the proof's index before each
  // proof so a rejection can name the culprit.
  void SetTag(size_t tag) { tag_ = tag; }

  void Add(KzgDeferredOpening opening) {
    opening.tag = tag_;
    entries_.push_back(std::move(opening));
  }
  size_t size() const { return entries_.size(); }

  // Draws an RLC challenge r from a transcript over every accumulated claim
  // and verifies sum_j r^j·lhs_j == sum_j r^j·(tau - z_j)·W_j with a single
  // pairing check. A cheat in any single claim survives only with probability
  // |entries|/|Fr|. On failure, each claim is re-checked individually
  // (diagnostic only — these extra checks run on the rejection path) and the
  // tags of the failing proofs are reported in the error message and, when
  // `blamed_tags` is non-null, appended there.
  Status Check(const KzgSetup& setup, std::vector<size_t>* blamed_tags = nullptr) const;

 private:
  std::vector<KzgDeferredOpening> entries_;
  size_t tag_ = 0;
};

class KzgPcs : public Pcs {
 public:
  explicit KzgPcs(std::shared_ptr<const KzgSetup> setup) : setup_(std::move(setup)) {}

  // Deferred-verification mode: VerifyBatch records its final opening claim
  // into `defer` (not owned) and reports success; the caller must discharge
  // the accumulator with KzgAccumulator::Check. Proving is unaffected.
  KzgPcs(std::shared_ptr<const KzgSetup> setup, KzgAccumulator* defer)
      : setup_(std::move(setup)), defer_(defer) {}

  const KzgSetup& setup() const { return *setup_; }
  const std::shared_ptr<const KzgSetup>& shared_setup() const { return setup_; }

  PcsKind kind() const override { return PcsKind::kKzg; }
  const std::vector<G1Affine>& bases() const override { return setup_->powers; }

  void OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                 Transcript* transcript, std::vector<uint8_t>* proof_out) const override;
  Status VerifyBatch(const std::vector<PcsCommitment>& commitments, const std::vector<Fr>& evals,
                     const Fr& point, Transcript* transcript, const std::vector<uint8_t>& proof,
                     size_t* offset) const override;

 private:
  std::shared_ptr<const KzgSetup> setup_;
  KzgAccumulator* defer_ = nullptr;
};

}  // namespace zkml

#endif  // SRC_PCS_KZG_H_
