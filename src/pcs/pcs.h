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
#include "src/poly/domain.h"
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

// A polynomial commitment backend over one radix-2 domain of size n, the
// setup's size. Every commitment is in Lagrange form: a polynomial commits
// through its n evaluations over the domain, and nothing commits
// coefficients. Provers open one batch of polynomials (coefficient vectors)
// per evaluation point; verifiers check all of a proof's batches in one call.
class Pcs {
 public:
  // n is the setup's domain size, a power of two.
  explicit Pcs(size_t n);
  virtual ~Pcs() = default;

  virtual PcsKind kind() const = 0;
  // The setup's domain size n: every committed vector has exactly n
  // evaluations, and every opened polynomial at most n coefficients.
  size_t size() const { return n_; }
  // The size-n domain. It is built on first use together with the
  // commitment basis and its table, the one setup-class state a Pcs keeps
  // (CommitBasisCache); keygen's proving key shares it, and the openings'
  // FFTs and Lagrange coefficients run over it.
  const std::shared_ptr<const EvaluationDomain>& domain() const;
  // The Lagrange basis of the size-n `domain`: the points L with
  // commit(evals) = sum_i evals[i]·L_i. KZG forms [L_i(tau)]G from its
  // trapdoor (KzgSetup::LagrangeBasis); IPA's Pedersen bases are its basis.
  // Setup-class work: the Pcs asks once and caches the answer.
  virtual std::vector<G1Affine> LagrangeBasis(const EvaluationDomain& domain) const = 0;

  // Commits to each polynomial whose evaluations over the size-n domain are
  // *evals[i] (exactly n of them); result i belongs to evals[i]. The MSMs
  // run against the backend's LagrangeBasis, built once and cached, on the
  // calling thread before the MSMs fan out, so a cold cache builds it
  // exactly once. The K MSMs run as one task group on the global pool — each
  // prover round commits all its vectors in one call, so a round of small
  // MSMs (each serial below the MSM's own parallel threshold) still fills
  // every core. A batch of one runs on the calling thread. Bases below
  // kMsmSerialThreshold points commit through their fixed-base table
  // (CommitBasisCache); larger ones run the lone Msm() schedule. Either way
  // the point is the same. A polynomial in coefficient form (a quotient
  // chunk, an opening witness) commits through one n-point FFT first: the
  // same group element as its coefficients against a monomial basis.
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
  const CommitBasis& Basis() const;

  size_t n_;
  CommitBasisCache basis_cache_;
};

}  // namespace zkml

#endif  // SRC_PCS_PCS_H_
