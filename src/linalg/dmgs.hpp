// dmGS — fully distributed modified Gram-Schmidt QR factorization
// (Straková, Gansterer, Zemen — PPAM 2011; Section IV of the paper).
//
// The matrix V ∈ R^{n×m} (n ≥ N) is distributed row-wise over the N nodes of
// a topology (node i owns rows {i, i+N, …}). Modified Gram-Schmidt runs as
// usual, except that every column norm and every dot product is computed by a
// *distributed reduction*: each node contributes the partial sum over its
// rows, a gossip reduction spreads the global value, and each node continues
// with its OWN estimate of the result. Nodes therefore hold slightly
// different R matrices; the factorization error measures V against Q combined
// with each row owner's R — exactly the quantity the paper's Fig. 8 plots.
//
// The m−j−1 dot products of elimination step j are batched into ⌈(m−j−1)/16⌉
// vector-payload reductions, which is what the iterative nature of gossip
// buys at the matrix level (one reduction run amortizes many scalars).
#pragma once

#include "core/reducer.hpp"
#include "linalg/matrix.hpp"
#include "net/topology.hpp"
#include "sim/reduce.hpp"

namespace pcf::linalg {

struct DmgsOptions {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  /// Target accuracy ε per reduction (the paper uses 1e-15), checked on
  /// component 0 only (ReduceOptions::target_accuracy): a batched reduction
  /// stops once its first dot product is within ε.
  double reduction_accuracy = 1e-15;
  /// Iteration cap per reduction — terminates reductions which never reach ε
  /// (for PF at scale, this cap is what bounds the error in Fig. 8).
  std::size_t max_rounds_per_reduction = 1500;
  /// Faults injected into EVERY reduction (e.g. message loss); link failures
  /// listed here fire within each reduction at the given round.
  sim::FaultPlan faults;
};

struct DmgsResult {
  Matrix q;                    ///< assembled from the row owners
  std::vector<Matrix> r;       ///< per-node m×m upper-triangular estimates
  std::size_t reductions = 0;  ///< number of gossip reductions executed
  std::size_t total_rounds = 0;
  std::size_t reductions_hit_cap = 0;  ///< reductions terminated by the cap

  /// The paper's Fig. 8 error, taken as the worst case over nodes:
  /// max_j ‖V − Q·R_j‖∞ / ‖V‖∞. Every node ends the factorization with its
  /// own R estimate; inaccurate reductions show up as disagreement between
  /// those estimates, which is exactly what this measures.
  [[nodiscard]] double factorization_error(const Matrix& v) const;
  /// ‖V − Q·R_owner‖∞ / ‖V‖∞ with each row reconstructed from its OWNER's R.
  /// Near machine precision by construction (each node's row transformations
  /// are exactly invertible with its own coefficients) — a self-consistency
  /// check, not an accuracy measure.
  [[nodiscard]] double self_consistency_error(const Matrix& v, const net::Topology& topology) const;
  /// ‖QᵀQ − I‖∞ of the assembled Q.
  [[nodiscard]] double orthogonality_error() const;
  /// Largest elementwise disagreement between any two nodes' R.
  [[nodiscard]] double r_disagreement() const;
};

/// Factorizes V distributed over `topology`. Requires v.rows() >= topology
/// size and v.cols() >= 1.
[[nodiscard]] DmgsResult dmgs(const net::Topology& topology, const Matrix& v,
                              const DmgsOptions& options);

}  // namespace pcf::linalg
