// Polynomial commitment scheme interface shared by the KZG and IPA backends.
// The PLONK prover/verifier is written against this interface so a circuit
// can be proven under either commitment scheme, as in the paper's Tables 6/7.
#ifndef SRC_PCS_PCS_H_
#define SRC_PCS_PCS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ec/g1.h"
#include "src/ff/fields.h"
#include "src/pcs/commit_basis.h"
#include "src/transcript/transcript.h"

namespace zkml {

enum class PcsKind { kKzg, kIpa };

struct PcsCommitment {
  G1Affine point;

  bool operator==(const PcsCommitment& o) const { return point == o.point; }
};

// The address of each vector, in order: the argument form of the batched
// commit calls below.
inline std::vector<const std::vector<Fr>*> PolyPointers(const std::vector<std::vector<Fr>>& vs) {
  std::vector<const std::vector<Fr>*> out;
  out.reserve(vs.size());
  for (const std::vector<Fr>& v : vs) {
    out.push_back(&v);
  }
  return out;
}

// The verifier's view of one opening batch: polynomials committed as
// `commitments` claimed to evaluate to `evals` at `point`. `what` names the
// batch in error messages (e.g. "opening at rotation 1").
struct PcsOpeningBatch {
  std::vector<PcsCommitment> commitments;
  std::vector<Fr> evals;
  Fr point;
  std::string what;
};

// The caller-contract check every backend runs on a batch before reading its
// proof bytes: as many evaluations as commitments, and at least one.
Status CheckOpeningBatchShape(const PcsOpeningBatch& batch, const char* backend);

// A polynomial commitment backend. Provers open one batch of polynomials
// (coefficient vectors) per evaluation point; verifiers check all of a
// proof's batches in one call.
class Pcs {
 public:
  virtual ~Pcs() = default;

  virtual PcsKind kind() const = 0;
  // Monomial commitment bases: tau^i·G for KZG, the Pedersen bases for IPA.
  virtual const std::vector<G1Affine>& bases() const = 0;
  // Maximum number of coefficients a committed polynomial may have.
  size_t max_len() const { return bases().size(); }

  // Commits to each coefficient vector in `polys`; result i belongs to
  // polys[i]. The K MSMs run as one task group on the global pool — each
  // prover round commits all its vectors in one call, so a round of small
  // MSMs (each serial below the MSM's own parallel threshold) still fills
  // every core. A batch of one runs on the calling thread. Bases below
  // kMsmSerialThreshold points commit through their fixed-base table
  // (CommitBasisCache), built once per basis on first use; larger ones run
  // the lone Msm() schedule. Either way the point is the same.
  std::vector<PcsCommitment> Commit(const std::vector<const std::vector<Fr>*>& polys) const;
  PcsCommitment Commit(const std::vector<Fr>& coeffs) const;

  // Commits to each polynomial whose evaluations over the radix-2 domain of
  // size evals[i]->size() (a power of two, <= max_len()) are *evals[i],
  // without an iFFT: the MSM runs against a Lagrange-basis SRS derived once
  // per size by a G1 inverse FFT of the monomial bases and cached. The bases
  // and tables are fetched on the calling thread before the MSMs fan out, so
  // a cold cache builds each size exactly once. Every returned point is
  // bit-identical to Commit(IfftToCoeffs(evals)) — both are the same group
  // element and affine serialization is canonical.
  std::vector<PcsCommitment> CommitLagrange(
      const std::vector<const std::vector<Fr>*>& evals) const;
  PcsCommitment CommitLagrange(const std::vector<Fr>& evals) const;

  // Proves the evaluations of `polys` at `point`. The caller must already
  // have absorbed the claimed evaluations into `transcript`; the RLC batching
  // challenge is drawn from it here. Proof bytes are appended to `proof_out`.
  virtual void OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                         Transcript* transcript, std::vector<uint8_t>* proof_out) const = 0;

  // Verifier side: checks every opening batch of one proof, in the order the
  // prover opened them. Per batch the transcript draws the RLC challenge and
  // then absorbs the batch's proof bytes, mirroring OpenBatch. Consumes bytes
  // from proof[*offset...] and advances *offset. Proof bytes are adversarial:
  // implementations must never abort on them. Returns kMalformedProof for
  // structurally bad bytes (truncation, invalid encodings, unsupported
  // sizes), kVerifyFailed when an opening equation does not hold,
  // kInvalidArgument on caller contract violations; the message starts with
  // the failing batch's `what`.
  virtual Status VerifyOpenings(const std::vector<PcsOpeningBatch>& batches,
                                Transcript* transcript, const std::vector<uint8_t>& proof,
                                size_t* offset) const = 0;

 private:
  CommitBasisCache basis_cache_;
};

}  // namespace zkml

#endif  // SRC_PCS_PCS_H_
