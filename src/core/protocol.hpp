// Protocol kernels: every reducer algorithm's rules, written once.
//
// A kernel is one rule of one algorithm (send, receive, local mass and
// estimate, link down and up, rejoin reset, stored-flow corruption, the
// unreceived-mass replay, checkpoint transfer) applied to ONE node's state, seen
// through a NodeRows view: raw pointers to the node's rows. Every Mass is a
// row of stride = dim+1 doubles in the order [s0, …, s_{d-1}, w]; Mass's own
// operators apply the s components in index order and then w, so a flat loop
// over a row performs the same floating-point operation sequence a Mass
// expression would.
//
// Hot-path contract: what is bitwise-pinned is the sequence of operations
// EACH component sees, not the order components are visited in. The sums
// over live slots (local_mass, fused, subtree_sum) therefore run components
// outer and slots inner, with one accumulator per component that stays in a
// register; a sum is never reassociated within a component (docs/PROTOCOL.md,
// "Hot-path contract").
//
// One layout hands out those views and holds no rule: ArenaFleet
// (core/arena.hpp) keeps one RowStore for a whole graph over CSR adjacency
// and views node i's rows at offsets_[i]; make_reducer's lone node is a
// one-node fleet. The fleet's operations (core/arena.hpp) call these kernels
// on one node's view.
//
// The algorithms (Algorithm in core/reducer.hpp):
//
//  Push-sum (Kempe, Dobra, Gehrke 2003). Keep half the mass, push half to a
//   random neighbor. Conservation is a global property, so a lost packet
//   destroys the result: the non-fault-tolerant baseline.
//
//  Push-flow (PF, Fig. 1 of the paper). Node i keeps a flow f_{i,j} per
//   neighbor; a send folds half the current mass into the flow ("virtual
//   send") and transmits the whole flow; the receiver overwrites its mirror
//   with the exact negation. e_i = v_i − Σ_j f_{i,j}. Self-heals loss and
//   flow bit flips, but converged flows grow with n (cancellation errors) and
//   excluding a link zeroes a flow of arbitrary size (restart).
//
//  Push-cancel-flow (PCF, Section III / Fig. 5 — the paper's contribution).
//   Each edge carries TWO flow slots: the active one runs plain PF, the
//   passive one is driven to zero. Once the passive pair is observed to be
//   an exact negation both ends absorb their copy into ϕ, zero it, and the
//   roles swap, forever. Flows stay O(aggregate) (machine-precision results,
//   Fig. 6) and zeroing a flow pair on link failure perturbs only mass, not
//   estimates (no fall-back, Fig. 7). The rules deviate from the paper's
//   symmetric handshake, which races under pipelined asynchronous delivery
//   (a swap adopted back by a stale packet; absorption of non-negations —
//   both found by tests/core/test_interleaving_fuzz.cpp). Three asymmetries
//   make it race-free:
//    1. only the lower node id (the initiator) starts cancellations and
//       bumps the per-edge counter r; the completer absorbs and swaps when
//       it sees the bump, the initiator adopts the swap. Adoption is one-way.
//    2. the initiator's passive copy is write-once per cycle; only the
//       completer mirrors its passive. r counts PHASES (even = steady,
//       odd = transition), and the initiator only accepts cancel-equality
//       from packets of the current steady phase, which by per-direction
//       FIFO the completer sends after mirroring the frozen value. The two
//       absorbed halves are exact negations under any interleaving and loss.
//    3. while a swap propagates, old-role packets mirror only the old active
//       slot, so fresh pushes are never clobbered by a stale zero.
//   The active slot runs unmodified PF in every phase, so without failures
//   PCF's estimates match PF's for the same schedule (Section III-B). The
//   kFast variant keeps ϕ = absorbed + Σ live slots incrementally (Fig. 5
//   verbatim, cannot heal a corrupted slot); kRobust keeps only the absorbed
//   mass in ϕ and re-sums the live slots, so mirrored slots heal.
//
//  Flow Updating (Jesus, Baquero, Almeida 2009), gossip-paced: per neighbor a
//   flow and the neighbor's last fused estimate ê_j. A send fuses
//   a_i = ((v_i − Σ f) + Σ ê_j) / (|N_i|+1), moves the edge flow so the
//   neighbor's view becomes a_i, and transmits (f, a_i). Updates one random
//   neighbor per step instead of broadcasting; SUM works through the ratio
//   of averages.
//
//  Correction allreduce (Küttler & Härtig), gossip-paced over the spanning
//   tree net::TreeSchedule. Every packet is the sender's full status: a =
//   subtree sum, b = global view (valid iff active_slot == 2; the root
//   publishes its subtree sum), role_count = parent id + 1 (0 = fragment
//   root). Reports are absolute, so loss and duplication are corrected by the
//   next resend. A node whose parent link dies re-attaches to its
//   (depth, id)-minimal live neighbor of strictly smaller static depth, or
//   becomes a fragment root. No mass moves: local mass is the input.
//
//  FU/MD hybrid (Almeida et al., arXiv 1109.4373), gossip-paced: FU's flow
//   bookkeeping with Mass-Distribution's pairwise step — halve the gap to the
//   neighbor's last reported mass through the edge flow, Δ = (m_i − m̂_j)/2,
//   and transmit (f, m_i − Δ). Shares FU's receive and exclusion rules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/mass.hpp"
#include "core/reducer.hpp"
#include "net/tree_schedule.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::core {

/// Calls `f.template operator()<A>()` with the runtime algorithm `a` as a
/// template argument — the one switch that turns an Algorithm value into a
/// kernel instantiation.
template <class F>
decltype(auto) visit(Algorithm a, F&& f) {
  switch (a) {
    case Algorithm::kPushSum: return f.template operator()<Algorithm::kPushSum>();
    case Algorithm::kPushFlow: return f.template operator()<Algorithm::kPushFlow>();
    case Algorithm::kPushCancelFlow: return f.template operator()<Algorithm::kPushCancelFlow>();
    case Algorithm::kFlowUpdating: return f.template operator()<Algorithm::kFlowUpdating>();
    case Algorithm::kCorrectionAllreduce:
      return f.template operator()<Algorithm::kCorrectionAllreduce>();
    case Algorithm::kFuMassHybrid: return f.template operator()<Algorithm::kFuMassHybrid>();
  }
  PCF_CHECK_MSG(false, "unhandled algorithm enum value");
  __builtin_unreachable();
}

namespace protocol {

inline constexpr auto kPS = Algorithm::kPushSum;
inline constexpr auto kPF = Algorithm::kPushFlow;
inline constexpr auto kPCF = Algorithm::kPushCancelFlow;
inline constexpr auto kFU = Algorithm::kFlowUpdating;
inline constexpr auto kCORR = Algorithm::kCorrectionAllreduce;
inline constexpr auto kFMH = Algorithm::kFuMassHybrid;

inline constexpr std::size_t kMaxStride = kMaxDim + 1;

/// Which rows algorithm A stores.
template <Algorithm A>
struct Shape {
  /// Flow rows per edge slot: PCF's two slots, one flow for PF/FU/FMH.
  static constexpr std::size_t kFlowRows = A == kPCF ? 2 : (A == kPS || A == kCORR) ? 0 : 1;
  /// A neighbor report per edge slot (FU: ê_j, CORR: child report, FMH: m̂_j).
  static constexpr bool kReports = A == kFU || A == kCORR || A == kFMH;
};

/// Mass pairs a packet of algorithm A carries on the wire (bandwidth
/// accounting): one flow for push-sum/PF, two masses for the rest.
template <Algorithm A>
inline constexpr std::size_t kWireMasses = A == kPS || A == kPF ? 1 : 2;

/// Whether pending packets on one link carry independent mass (push-sum:
/// each is a transfer) or supersede each other (absolute flows and reports:
/// only the newest counts).
template <Algorithm A>
inline constexpr bool kInFlightMassAccumulates = A == kPS;

/// One node's protocol state. The first block comes from the layout's
/// neighborhood; the pointers below it into a RowStore. Only the rows of
/// Shape<A> are bound (cached: PF with pf_cached_flow_sum only).
struct NodeRows {
  NodeId self = 0;
  std::size_t dim = 0;
  std::size_t degree = 0;
  const NodeId* nbr = nullptr;          ///< sorted neighbor ids, one per slot
  const std::uint8_t* alive = nullptr;  ///< per slot
  const ReducerConfig* config = nullptr;

  double* input = nullptr;     ///< push-sum: the mass e_i; the rest: the input v_i
  double* flows = nullptr;     ///< Shape<A>::kFlowRows rows per slot
  double* cached = nullptr;    ///< PF ablation: Σ flows
  double* reports = nullptr;   ///< one row per slot
  std::uint8_t* have_report = nullptr;
  double* phi = nullptr;       ///< PCF: absorbed (+kFast: live) flows
  double* pending = nullptr;   ///< PCF: per slot, the initiator's pending absorption
  std::uint8_t* active = nullptr;       ///< PCF: per slot, active flow slot 0/1
  std::uint64_t* cycle = nullptr;       ///< PCF: per slot, phase counter r
  std::uint64_t* role_swaps = nullptr;  ///< PCF: completed swaps, summed over edges
  std::uint8_t* child = nullptr;        ///< CORR: per slot, neighbor claims us as parent
  double* global = nullptr;             ///< CORR: last global view from the parent
  std::uint8_t* have_global = nullptr;  ///< CORR

  [[nodiscard]] std::size_t stride() const noexcept { return dim + 1; }
  [[nodiscard]] double* flow(std::size_t slot) const noexcept { return flows + slot * stride(); }
  /// PCF flow slot `which` (0/1) of edge slot `slot`.
  [[nodiscard]] double* pcf_flow(std::size_t slot, std::size_t which) const noexcept {
    return flows + (slot * 2 + which) * stride();
  }
  [[nodiscard]] double* report(std::size_t slot) const noexcept {
    return reports + slot * stride();
  }
  [[nodiscard]] double* pending_row(std::size_t slot) const noexcept {
    return pending + slot * stride();
  }
  [[nodiscard]] const net::TreeSchedule& tree() const noexcept { return *config->tree; }
};

/// The flat arrays behind NodeRows for `nodes` nodes with `edges` edge slots
/// in total: one per ArenaFleet.
class RowStore {
 public:
  RowStore() = default;

  template <Algorithm A>
  [[nodiscard]] static RowStore make(const ReducerConfig& config, std::size_t nodes,
                                     std::size_t edges, std::size_t dim) {
    const std::size_t stride = dim + 1;
    RowStore s;
    s.stride_ = stride;
    s.input_.assign(nodes * stride, 0.0);
    s.flows_.assign(edges * Shape<A>::kFlowRows * stride, 0.0);
    if (A == kPF && config.pf_cached_flow_sum) s.cached_.assign(nodes * stride, 0.0);
    if constexpr (Shape<A>::kReports) {
      s.reports_.assign(edges * stride, 0.0);
      s.have_report_.assign(edges, 0);
    }
    if constexpr (A == kPCF) {
      s.phi_.assign(nodes * stride, 0.0);
      s.pending_.assign(edges * stride, 0.0);
      s.active_.assign(edges, 0);
      s.cycle_.assign(edges, 0);
      s.role_swaps_.assign(nodes, 0);
    }
    if constexpr (A == kCORR) {
      PCF_CHECK_MSG(config.tree != nullptr,
                    "correction-allreduce needs a resolved tree schedule "
                    "(a topology fleet builds one; make_reducer must be given it)");
      s.child_.assign(edges, 0);
      s.global_.assign(nodes * stride, 0.0);
      s.have_global_.assign(nodes, 0);
    }
    return s;
  }

  /// Points `v` at the rows of node `node`, whose edge slots start at
  /// `first_edge`. The view writes through a const store: constness of the
  /// owner is the caller's contract, as for any non-owning view.
  template <Algorithm A>
  void bind(NodeRows& v, std::size_t node, std::size_t first_edge) const noexcept {
    const auto at = [](const auto& vec, std::size_t index) {
      using T = typename std::remove_reference_t<decltype(vec)>::value_type;
      return const_cast<T*>(vec.data()) + index;
    };
    v.input = at(input_, node * stride_);
    if constexpr (Shape<A>::kFlowRows > 0) {
      v.flows = at(flows_, first_edge * Shape<A>::kFlowRows * stride_);
    }
    if constexpr (A == kPF) {
      if (!cached_.empty()) v.cached = at(cached_, node * stride_);
    }
    if constexpr (Shape<A>::kReports) {
      v.reports = at(reports_, first_edge * stride_);
      v.have_report = at(have_report_, first_edge);
    }
    if constexpr (A == kPCF) {
      v.phi = at(phi_, node * stride_);
      v.pending = at(pending_, first_edge * stride_);
      v.active = at(active_, first_edge);
      v.cycle = at(cycle_, first_edge);
      v.role_swaps = at(role_swaps_, node);
    }
    if constexpr (A == kCORR) {
      v.child = at(child_, first_edge);
      v.global = at(global_, node * stride_);
      v.have_global = at(have_global_, node);
    }
  }

 private:
  std::size_t stride_ = 0;
  std::vector<double> input_, flows_, cached_, reports_, phi_, pending_, global_;
  std::vector<std::uint8_t> have_report_, active_, child_, have_global_;
  std::vector<std::uint64_t> cycle_, role_swaps_;
};

// ---------------------------------------------------------------------------
// Row helpers
// ---------------------------------------------------------------------------

inline void zero_row(double* r, std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) r[k] = 0.0;
}

inline void copy_row(double* dst, const double* src, std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) dst[k] = src[k];
}

/// Overwrites `m` with row `r` in place (a packet field, say): copies dim+1
/// doubles and nothing else.
inline void assign_mass(Mass& m, const double* r, std::size_t dim) {
  m.s.assign({r, dim});
  m.w = r[dim];
}

[[nodiscard]] inline Mass to_mass(const double* r, std::size_t dim) {
  Mass m;
  assign_mass(m, r, dim);
  return m;
}

inline void store_mass(double* r, const Mass& m) noexcept {
  for (std::size_t k = 0; k < m.dim(); ++k) r[k] = m.s[k];
  r[m.dim()] = m.w;
}

[[nodiscard]] inline const Mass& packet_slot(const Packet& packet, std::size_t slot) noexcept {
  return slot == 0 ? packet.a : packet.b;
}

/// Flips one random mantissa or sign bit of `victim` (a memory soft error).
inline void flip_bit(double& victim, Rng& rng) noexcept {
  std::uint64_t bit = rng.below(53);
  if (bit == 52) bit = 63;  // sign bit
  std::uint64_t bits;
  std::memcpy(&bits, &victim, sizeof bits);
  bits ^= (std::uint64_t{1} << bit);
  std::memcpy(&victim, &bits, sizeof bits);
}

// ---------------------------------------------------------------------------
// Derived state
// ---------------------------------------------------------------------------

// The sums over live slots run components outer and slots inner, in blocks
// of W adjacent components with one accumulator each (acc[j] stays in a
// register, the W lanes in vector registers), so each component sees exactly
// the adds of a slot-outer loop, in ascending slot order.

/// Calls f.template operator()<W>(k) over [0, n) in blocks of W = 8, 4, 2, 1.
template <class F>
void for_blocks(std::size_t n, F&& f) {
  std::size_t k = 0;
  for (; n - k >= 8; k += 8) f.template operator()<8>(k);
  if (n - k >= 4) {
    f.template operator()<4>(k);
    k += 4;
  }
  if (n - k >= 2) {
    f.template operator()<2>(k);
    k += 2;
  }
  if (n - k >= 1) f.template operator()<1>(k);
}

/// acc[j] += (kSubtract: −=) component k+j of each of the kRows rows of every
/// slot s with live(s), slots ascending, a slot's rows in order.
template <std::size_t W, std::size_t kRows, bool kSubtract = false, class Live>
inline void accumulate(double (&acc)[W], const NodeRows& v, const double* rows, std::size_t k,
                       Live&& live) noexcept {
  const std::size_t st = v.stride();
  const double* r = rows + k;
  for (std::size_t s = 0; s < v.degree; ++s, r += kRows * st) {
    if (!live(s)) continue;
    for (std::size_t q = 0; q < kRows; ++q) {
      for (std::size_t j = 0; j < W; ++j) {
        if constexpr (kSubtract) {
          acc[j] -= r[q * st + j];
        } else {
          acc[j] += r[q * st + j];
        }
      }
    }
  }
}

/// Components [k, k+W) of e_i into out[0, W) (component dim is the weight).
template <Algorithm A, std::size_t W>
inline void mass_block(const NodeRows& v, std::size_t k, double* out) noexcept {
  const double* in = v.input + k;
  const auto live = [&](std::size_t s) { return v.alive[s] != 0; };
  if constexpr (A == kPS || A == kCORR) {
    // Push-sum's in-flight mass; CORR's reports move no mass.
    for (std::size_t j = 0; j < W; ++j) out[j] = in[j];
  } else if constexpr (A == kPF) {
    // v − Σ live flows: sum in ascending slot order, THEN one subtraction.
    if (v.config->pf_cached_flow_sum) {
      for (std::size_t j = 0; j < W; ++j) out[j] = in[j] - v.cached[k + j];
      return;
    }
    double sum[W] = {};
    accumulate<W, 1>(sum, v, v.flows, k, live);
    for (std::size_t j = 0; j < W; ++j) out[j] = in[j] - sum[j];
  } else if constexpr (A == kPCF) {
    // kFast: v − ϕ. kRobust: (v − ϕ) − Σ live slots (slot 0 then 1 per edge),
    // re-summed so a healed slot no longer poisons the estimate.
    for (std::size_t j = 0; j < W; ++j) out[j] = in[j] - v.phi[k + j];
    if (v.config->pcf_variant == PcfVariant::kFast) return;
    double sum[W] = {};
    accumulate<W, 2>(sum, v, v.flows, k, live);
    for (std::size_t j = 0; j < W; ++j) out[j] -= sum[j];
  } else {
    // FU and the hybrid subtract live flows PER SLOT — a different rounding
    // than PF's sum-then-subtract, deliberately kept.
    static_assert(A == kFU || A == kFMH);
    double m[W];
    for (std::size_t j = 0; j < W; ++j) m[j] = in[j];
    accumulate<W, 1, true>(m, v, v.flows, k, live);
    for (std::size_t j = 0; j < W; ++j) out[j] = m[j];
  }
}

/// e_i into `out` (stride doubles).
template <Algorithm A>
void local_mass(const NodeRows& v, double* out) noexcept {
  for_blocks(v.stride(), [&]<std::size_t W>(std::size_t k) { mass_block<A, W>(v, k, out + k); });
}

/// FU: 1 / (1 + live reported neighbors), the fused average's scale.
[[nodiscard]] inline double fused_scale(const NodeRows& v) noexcept {
  std::size_t count = 1;
  for (std::size_t s = 0; s < v.degree; ++s) {
    if (v.alive[s] != 0 && v.have_report[s] != 0) ++count;
  }
  return 1.0 / static_cast<double>(count);
}

/// FU: components [k, k+W) of the fused neighborhood average a_i over own
/// mass and live reports; `scale` is fused_scale(v).
template <std::size_t W>
inline void fused_block(const NodeRows& v, std::size_t k, double scale, double* out) noexcept {
  double a[W];
  mass_block<kFU, W>(v, k, a);
  accumulate<W, 1>(a, v, v.reports, k,
                   [&](std::size_t s) { return v.alive[s] != 0 && v.have_report[s] != 0; });
  for (std::size_t j = 0; j < W; ++j) out[j] = a[j] * scale;
}

/// FU: a_i into `out` (stride doubles).
inline void fused(const NodeRows& v, double* out) noexcept {
  const double scale = fused_scale(v);
  for_blocks(v.stride(),
             [&]<std::size_t W>(std::size_t k) { fused_block<W>(v, k, scale, out + k); });
}

/// CORR: components [k, k+W) of v_i plus the reports of all live, claiming,
/// reported children.
template <std::size_t W>
inline void subtree_block(const NodeRows& v, std::size_t k, double* out) noexcept {
  double sum[W];
  for (std::size_t j = 0; j < W; ++j) sum[j] = v.input[k + j];
  accumulate<W, 1>(sum, v, v.reports, k, [&](std::size_t s) {
    return v.alive[s] != 0 && v.child[s] != 0 && v.have_report[s] != 0;
  });
  for (std::size_t j = 0; j < W; ++j) out[j] = sum[j];
}

/// CORR: the subtree sum into `out` (stride doubles).
inline void subtree_sum(const NodeRows& v, double* out) noexcept {
  for_blocks(v.stride(), [&]<std::size_t W>(std::size_t k) { subtree_block<W>(v, k, out + k); });
}

/// CORR: slot of the (depth, id)-minimal live neighbor at strictly smaller
/// static depth, or nullopt for a (fragment) root. Ascending slots are
/// ascending ids, so the strict < breaks depth ties toward the smaller id.
[[nodiscard]] inline std::optional<std::size_t> parent_slot(const NodeRows& v) noexcept {
  const net::TreeSchedule& tree = v.tree();
  std::optional<std::size_t> best;
  std::uint32_t best_depth = tree.depth[v.self];
  for (std::size_t s = 0; s < v.degree; ++s) {
    if (v.alive[s] == 0) continue;
    const std::uint32_t d = tree.depth[v.nbr[s]];
    if (d < best_depth) {
      best = s;
      best_depth = d;
    }
  }
  return best;
}

/// Estimate of aggregate component k: the mass ratio s[k]/w, except FU's
/// fused average and CORR's global view (subtree sum as a fragment root or
/// before the first view arrives). Zero weight reads as 0 (Mass::estimate).
/// Only the two components the ratio reads are computed.
template <Algorithm A>
[[nodiscard]] double estimate(const NodeRows& v, std::size_t k) noexcept {
  PCF_ASSERT(k < v.dim);
  const auto ratio = [&](auto block) {
    double w = 0.0;
    block(v.dim, &w);
    if (w == 0.0) return 0.0;
    double x = 0.0;
    block(k, &x);
    return x / w;
  };
  if constexpr (A == kFU) {
    const double scale = fused_scale(v);
    return ratio([&](std::size_t c, double* out) { fused_block<1>(v, c, scale, out); });
  } else if constexpr (A == kCORR) {
    if (*v.have_global != 0 && parent_slot(v).has_value()) {
      return ratio([&](std::size_t c, double* out) { *out = v.global[c]; });
    }
    return ratio([&](std::size_t c, double* out) { subtree_block<1>(v, c, out); });
  } else {
    return ratio([&](std::size_t c, double* out) { mass_block<A, 1>(v, c, out); });
  }
}

// ---------------------------------------------------------------------------
// Send and receive
// ---------------------------------------------------------------------------

/// Fills `out` with node v's packet toward live slot `slot`, updating state.
template <Algorithm A>
void send(const NodeRows& v, std::size_t slot, Packet& out) {
  const std::size_t dim = v.dim;
  const std::size_t st = v.stride();
  if constexpr (A == kPS) {
    // Keep half, push half: lost packets lose the mass — push-sum's fragility.
    double* m = v.input;
    double share[kMaxStride];
    for (std::size_t k = 0; k < st; ++k) {
      share[k] = m[k] * 0.5;
      m[k] -= share[k];
    }
    assign_mass(out.a, share, dim);
  } else if constexpr (A == kPF) {
    // Virtual send: fold half the mass into the flow, transmit the whole
    // flow — a lost packet loses nothing, the next one carries it.
    double lm[kMaxStride];
    local_mass<A>(v, lm);
    double* f = v.flow(slot);
    double* c = v.config->pf_cached_flow_sum ? v.cached : nullptr;
    for (std::size_t k = 0; k < st; ++k) {
      const double half = lm[k] * 0.5;
      f[k] += half;
      if (c != nullptr) c[k] += half;
    }
    assign_mass(out.a, f, dim);
  } else if constexpr (A == kPCF) {
    // PF on the edge's active slot only.
    double lm[kMaxStride];
    local_mass<A>(v, lm);
    double* f = v.pcf_flow(slot, v.active[slot]);
    const bool fast = v.config->pcf_variant == PcfVariant::kFast;
    for (std::size_t k = 0; k < st; ++k) {
      const double half = lm[k] * 0.5;
      f[k] += half;
      if (fast) v.phi[k] += half;
    }
    assign_mass(out.a, v.pcf_flow(slot, 0), dim);
    assign_mass(out.b, v.pcf_flow(slot, 1), dim);
    out.active_slot = static_cast<std::uint8_t>(v.active[slot] + 1);  // wire: 1-based
    out.role_count = v.cycle[slot];
  } else if constexpr (A == kFU) {
    // Move the edge flow so the neighbor's view becomes the fused average.
    double a[kMaxStride];
    fused(v, a);
    double* f = v.flow(slot);
    double* est = v.report(slot);
    if (v.have_report[slot] != 0) {
      for (std::size_t k = 0; k < st; ++k) f[k] += a[k] - est[k];
    } else {
      for (std::size_t k = 0; k < st; ++k) f[k] += a[k];
    }
    copy_row(est, a, st);
    v.have_report[slot] = 1;
    assign_mass(out.a, f, dim);  // idempotent flow: retransmission-safe
    assign_mass(out.b, a, dim);
  } else if constexpr (A == kCORR) {
    // Full status, whoever the receiver: subtree report, parent claim, and
    // the global view when held.
    double s[kMaxStride];
    subtree_sum(v, s);
    const auto parent = parent_slot(v);
    assign_mass(out.a, s, dim);
    out.role_count = parent ? static_cast<std::uint64_t>(v.nbr[*parent]) + 1 : 0;
    if (!parent) {
      out.b = out.a;  // the (fragment) root's sum IS the view
      out.active_slot = 2;
    } else if (*v.have_global != 0) {
      assign_mass(out.b, v.global, dim);
      out.active_slot = 2;
    } else {
      out.b = Mass::zero(dim);
      out.active_slot = 1;  // b carries nothing yet
    }
  } else {
    // MD pairing: route half the gap to the neighbor's last reported mass
    // through the edge flow; without a report the exchange only advertises.
    static_assert(A == kFMH);
    double m[kMaxStride];
    local_mass<A>(v, m);
    double* f = v.flow(slot);
    if (v.have_report[slot] != 0) {
      const double* rep = v.report(slot);
      for (std::size_t k = 0; k < st; ++k) {
        const double d = (m[k] - rep[k]) * 0.5;
        f[k] += d;
        m[k] -= d;
      }
    }
    assign_mass(out.a, f, dim);
    assign_mass(out.b, m, dim);  // post-step local mass: the report
  }
}

/// Whether receive<A> acts on `packet` arriving on known slot `slot` — the
/// one acceptance test receive and unreceived_mass share: matching
/// dimensions, a live link (push-sum also accepts excluded links), and a
/// valid header where the algorithm reads one.
template <Algorithm A>
[[nodiscard]] bool accepts(const NodeRows& v, std::size_t slot, const Packet& packet) noexcept {
  if (packet.a.dim() != v.dim) return false;
  if constexpr (A == kPS) return true;
  if (v.alive[slot] == 0) return false;  // stale packet after exclusion
  if constexpr (A == kPF) return true;
  if (packet.b.dim() != v.dim) return false;
  if constexpr (A == kPCF || A == kCORR) {
    return packet.active_slot == 1 || packet.active_slot == 2;  // else corrupted header
  }
  return true;
}

namespace detail {

/// PCF: mirrors `received` into flow slot `which` of `slot`; kFast keeps
/// ϕ == absorbed + Σ live flows with two separate updates (ϕ −= old,
/// ϕ += new).
inline void pcf_mirror(const NodeRows& v, std::size_t slot, std::size_t which,
                       const Mass& received) noexcept {
  const std::size_t dim = v.dim;
  double* f = v.pcf_flow(slot, which);
  const bool fast = v.config->pcf_variant == PcfVariant::kFast;
  for (std::size_t k = 0; k < dim; ++k) {
    const double mirrored = -received.s[k];
    if (fast) {
      v.phi[k] -= f[k];
      v.phi[k] += mirrored;
    }
    f[k] = mirrored;
  }
  const double mirrored_w = -received.w;
  if (fast) {
    v.phi[dim] -= f[dim];
    v.phi[dim] += mirrored_w;
  }
  f[dim] = mirrored_w;
}

/// PCF: absorbs the passive slot into ϕ and zeroes it (kFast: ϕ already
/// counts the slot, so zeroing alone moves it from "live" to "absorbed").
inline void pcf_absorb_passive(const NodeRows& v, std::size_t slot) noexcept {
  const std::size_t st = v.stride();
  double* f = v.pcf_flow(slot, 1 - v.active[slot]);
  if (v.config->pcf_variant == PcfVariant::kRobust) {
    for (std::size_t k = 0; k < st; ++k) v.phi[k] += f[k];
  }
  zero_row(f, st);
}

inline void pcf_receive_as_initiator(const NodeRows& v, std::size_t slot,
                                     const Packet& packet) noexcept {
  const std::uint64_t r_p = packet.role_count;
  std::uint64_t& cycle = v.cycle[slot];
  std::uint8_t& active = v.active[slot];
  if (r_p == cycle) {
    if (cycle % 2 == 1) {
      // Transition: the completer completed and swapped — adopt. Its passive
      // copy predates our freeze, so mirror only the new active slot.
      active = static_cast<std::uint8_t>(1 - active);
      zero_row(v.pending_row(slot), v.stride());  // handshake balanced on both sides
      ++cycle;
      ++*v.role_swaps;
      pcf_mirror(v, slot, active, packet_slot(packet, active));
      return;
    }
    // Steady: plain PF on the active slot.
    const std::size_t act = active;
    const std::size_t pas = 1 - act;
    pcf_mirror(v, slot, act, packet_slot(packet, act));
    // The completer's passive must be the exact negation of our frozen one
    // (a safety net against loss-reordering and corruption).
    const Mass& p = packet_slot(packet, pas);
    const double* f = v.pcf_flow(slot, pas);
    bool negation = p.w == -f[v.dim];
    for (std::size_t k = 0; negation && k < v.dim; ++k) negation = p.s[k] == -f[k];
    if (negation) {
      copy_row(v.pending_row(slot), f, v.stride());
      pcf_absorb_passive(v, slot);
      ++cycle;  // enter the transition phase
    }
    // The initiator never mirrors its passive (write-once per cycle).
  } else if (r_p + 1 == cycle) {
    // Completer one phase behind: in either parity its active slot is ours
    // (swaps happen completer-first), so PF keeps running there.
    pcf_mirror(v, slot, active, packet_slot(packet, active));
  }
  // else: stale pipeline leftovers (≥ 2 phases old) — drop.
}

inline void pcf_receive_as_completer(const NodeRows& v, std::size_t slot,
                                     const Packet& packet) noexcept {
  const std::uint64_t r_p = packet.role_count;
  std::uint64_t& cycle = v.cycle[slot];
  std::uint8_t& active = v.active[slot];
  if (r_p == cycle + 1) {
    if (cycle % 2 == 0) {
      // The initiator cancelled: our mirrored passive absorbs to zero net.
      pcf_absorb_passive(v, slot);
      active = static_cast<std::uint8_t>(1 - active);
      ++cycle;
      ++*v.role_swaps;
    } else {
      ++cycle;  // the initiator adopted our swap — steady phase begins
    }
  } else if (r_p != cycle) {
    return;  // unreachable under FIFO; drop defensively (loss/corruption)
  }
  const std::size_t act = active;
  const std::size_t pas = 1 - act;
  if (cycle % 2 == 1) {
    // Transition: the initiator still pushes into the old active slot, our
    // passive now; its other slot is its zeroed copy of our fresh active and
    // must not clobber our pushes.
    pcf_mirror(v, slot, pas, packet_slot(packet, pas));
    return;
  }
  // Steady: PF on the active slot; the passive mirrors the initiator's frozen
  // value (idempotent once aligned).
  pcf_mirror(v, slot, act, packet_slot(packet, act));
  pcf_mirror(v, slot, pas, packet_slot(packet, pas));
}

}  // namespace detail

/// Delivers `packet` from neighbor v.nbr[slot]. Packets on a directed link
/// arrive in FIFO order; loss (gaps) is allowed.
template <Algorithm A>
void receive(const NodeRows& v, std::size_t slot, const Packet& packet) noexcept {
  if (!accepts<A>(v, slot, packet)) return;
  const std::size_t dim = v.dim;
  if constexpr (A == kPS) {
    for (std::size_t k = 0; k < dim; ++k) v.input[k] += packet.a.s[k];
    v.input[dim] += packet.a.w;
  } else if constexpr (A == kPF) {
    // Mirror with exact negation: re-establishes pairwise conservation and
    // repairs any earlier corruption of the flow. Per component: cached −=
    // old, cached += mirror, flow = mirror (separate adds — do not fuse).
    double* f = v.flow(slot);
    double* c = v.config->pf_cached_flow_sum ? v.cached : nullptr;
    for (std::size_t k = 0; k < dim; ++k) {
      const double mirrored = -packet.a.s[k];
      if (c != nullptr) {
        c[k] -= f[k];
        c[k] += mirrored;
      }
      f[k] = mirrored;
    }
    const double mirrored_w = -packet.a.w;
    if (c != nullptr) {
      c[dim] -= f[dim];
      c[dim] += mirrored_w;
    }
    f[dim] = mirrored_w;
  } else if constexpr (A == kPCF) {
    if (v.self < v.nbr[slot]) {
      detail::pcf_receive_as_initiator(v, slot, packet);
    } else {
      detail::pcf_receive_as_completer(v, slot, packet);
    }
  } else if constexpr (A == kCORR) {
    // The claim keeps the child set current: a neighbor that re-attached
    // elsewhere revokes itself with its next packet.
    const bool claims_us = packet.role_count == static_cast<std::uint64_t>(v.self) + 1;
    v.child[slot] = claims_us ? 1 : 0;
    if (claims_us) {
      store_mass(v.report(slot), packet.a);
      v.have_report[slot] = 1;
    } else {
      v.have_report[slot] = 0;
    }
    if (packet.active_slot == 2) {
      const auto parent = parent_slot(v);
      if (parent && *parent == slot) {
        store_mass(v.global, packet.b);
        *v.have_global = 1;
      }
    }
  } else {
    // FU and the hybrid: overwrite the flow with the exact mirror negation
    // and refresh the neighbor's report.
    static_assert(A == kFU || A == kFMH);
    double* f = v.flow(slot);
    double* est = v.report(slot);
    for (std::size_t k = 0; k < dim; ++k) {
      f[k] = -packet.a.s[k];
      est[k] = packet.b.s[k];
    }
    f[dim] = -packet.a.w;
    est[dim] = packet.b.w;
    v.have_report[slot] = 1;
  }
}

/// The mass node v's state does NOT yet reflect but delivering `packet` from
/// v.nbr[slot] would add to its local mass (the engines' crash retarget).
/// Push-sum: the share itself. Flow algorithms: stored mirror minus the
/// packet's flow — absolute, so only the newest pending packet per link
/// counts. CORR: nothing (reports carry no conserved mass).
template <Algorithm A>
[[nodiscard]] Mass unreceived_mass(const NodeRows& v, std::size_t slot, const Packet& packet) {
  Mass delta = Mass::zero(v.dim);
  if (!accepts<A>(v, slot, packet)) return delta;
  if constexpr (A == kPS) {
    return packet.a;
  } else if constexpr (A == kPF || A == kFU || A == kFMH) {
    return to_mass(v.flow(slot), v.dim) + packet.a;
  } else if constexpr (A == kCORR) {
    return delta;
  } else {
    // PCF: replay the receive phase rules without mutating. Mirroring slot s
    // to −packet[s] changes the mass by f_old[s] + packet[s]; absorptions and
    // swaps move mass between ϕ and the slots and are mass-neutral.
    const std::uint64_t r_p = packet.role_count;
    const auto mirror_delta = [&](std::size_t s) {
      delta += to_mass(v.pcf_flow(slot, s), v.dim) + packet_slot(packet, s);
    };
    std::uint8_t active = v.active[slot];
    std::uint64_t cycle = v.cycle[slot];
    if (v.self < v.nbr[slot]) {  // we are the initiator
      if (r_p == cycle) {
        // Adopting the completer's swap mirrors the new active (old passive);
        // steady PF mirrors the active one, a cancellation is neutral.
        mirror_delta(cycle % 2 == 1 ? 1 - active : active);
      } else if (r_p + 1 == cycle) {
        mirror_delta(active);
      }
      return delta;
    }
    if (r_p == cycle + 1) {
      if (cycle % 2 == 0) active = static_cast<std::uint8_t>(1 - active);  // swap on absorb
      ++cycle;
    } else if (r_p != cycle) {
      return delta;  // dropped defensively
    }
    if (cycle % 2 == 1) {
      mirror_delta(1 - active);  // transition: passive only
    } else {
      mirror_delta(active);  // steady: both slots
      mirror_delta(1 - active);
    }
    return delta;
  }
}

// ---------------------------------------------------------------------------
// Link events, rejoin, data updates, soft errors
// ---------------------------------------------------------------------------

/// Exclusion rule for live slot `slot` (Section II-C): `exclude()` flips the
/// layout's liveness. CORR resolves its parent BEFORE the exclusion.
template <Algorithm A, class Exclude>
void link_down(const NodeRows& v, std::size_t slot, Exclude&& exclude) {
  const std::size_t st = v.stride();
  std::optional<std::size_t> parent;
  if constexpr (A == kCORR) parent = parent_slot(v);
  exclude();
  if constexpr (A == kPF) {
    // The local mass jumps by the old flow — arbitrary for PF: the restart
    // problem PCF fixes.
    double* f = v.flow(slot);
    if (v.config->pf_cached_flow_sum) {
      for (std::size_t k = 0; k < st; ++k) v.cached[k] -= f[k];
    }
    zero_row(f, st);
  } else if constexpr (A == kPCF) {
    double* f0 = v.pcf_flow(slot, 0);
    double* f1 = v.pcf_flow(slot, 1);
    if (v.config->pcf_variant == PcfVariant::kFast) {
      // Keep ϕ == absorbed + Σ live flows: fold the dying slots back out.
      for (std::size_t k = 0; k < st; ++k) v.phi[k] -= f0[k];
      for (std::size_t k = 0; k < st; ++k) v.phi[k] -= f1[k];
    }
    zero_row(f0, st);
    zero_row(f1, st);
    if (v.self < v.nbr[slot] && v.cycle[slot] % 2 == 1) {
      // Initiator mid-transition: un-absorb the half of a cancellation the
      // peer (very likely) never completed — its copy died with the link.
      // If the peer DID complete and its swap notification was exactly the
      // packet the failure destroyed, this rollback itself creates the bias.
      // That window stays open until the completer's next packet reaches
      // the initiator — about one degree's worth of rounds under uniform
      // gossip, not one packet flight — versus the whole cancellation window
      // without rollback.
      double* pending = v.pending_row(slot);
      for (std::size_t k = 0; k < st; ++k) v.phi[k] -= pending[k];
      zero_row(pending, st);
    }
  } else if constexpr (A == kFU || A == kFMH) {
    zero_row(v.flow(slot), st);
    zero_row(v.report(slot), st);
    v.have_report[slot] = 0;
  } else if constexpr (A == kCORR) {
    zero_row(v.report(slot), st);
    v.have_report[slot] = 0;
    v.child[slot] = 0;
    // Losing the parent drops the global view: the subtree sum is the honest
    // estimate until a new parent publishes one.
    if (parent && *parent == slot) *v.have_global = 0;
  }
}

/// Recovery rule for slot `slot`, already marked live again: a blank edge
/// (the exclusion rule run in reverse). Re-zeroing also clears a soft error
/// that hit the dormant slot; PCF restarts the handshake aligned (slot 1
/// active, cycle 0) — both ends get their own link-up.
template <Algorithm A>
void link_up(const NodeRows& v, std::size_t slot) noexcept {
  const std::size_t st = v.stride();
  constexpr std::size_t rows = Shape<A>::kFlowRows;
  if constexpr (rows > 0) zero_row(v.flow(slot * rows), rows * st);
  if constexpr (Shape<A>::kReports) {
    zero_row(v.report(slot), st);
    v.have_report[slot] = 0;
  }
  if constexpr (A == kPCF) {
    v.active[slot] = 0;
    v.cycle[slot] = 0;
    zero_row(v.pending_row(slot), st);
  }
  if constexpr (A == kCORR) v.child[slot] = 0;  // no claim until the first packet
}

/// Factory-fresh state (init and rejoin): `initial` as the input, zeroed flow
/// state; CORR re-derives its static child set from the schedule.
template <Algorithm A>
void reset(const NodeRows& v, const Mass& initial) {
  PCF_CHECK_MSG(initial.dim() == v.dim, "initial mass dimension mismatch");
  const std::size_t st = v.stride();
  store_mass(v.input, initial);
  zero_row(v.flows, v.degree * Shape<A>::kFlowRows * st);
  if (v.cached != nullptr) zero_row(v.cached, st);
  if constexpr (Shape<A>::kReports) {
    zero_row(v.reports, v.degree * st);
    for (std::size_t s = 0; s < v.degree; ++s) v.have_report[s] = 0;
  }
  if constexpr (A == kPCF) {
    zero_row(v.phi, st);
    zero_row(v.pending, v.degree * st);
    for (std::size_t s = 0; s < v.degree; ++s) {
      v.active[s] = 0;
      v.cycle[s] = 0;
    }
    *v.role_swaps = 0;
  }
  if constexpr (A == kCORR) {
    const net::TreeSchedule& tree = v.tree();
    const auto covered = [&](NodeId j) {
      return j < tree.parent.size() && j < tree.depth.size();
    };
    PCF_CHECK_MSG(covered(v.self), "tree schedule does not cover node " << v.self);
    for (std::size_t s = 0; s < v.degree; ++s) {
      PCF_CHECK_MSG(covered(v.nbr[s]), "tree schedule does not cover node " << v.nbr[s]);
      v.child[s] = tree.parent[v.nbr[s]] == v.self ? 1 : 0;
    }
    zero_row(v.global, st);
    *v.have_global = 0;
  }
}

/// Live data update (LiMoSense-style): the input moves by `delta`; flows are
/// untouched and the estimates re-converge. Push-sum has no separate input,
/// so the delta joins its in-flight mass.
inline void update_data(const NodeRows& v, const Mass& delta) {
  PCF_CHECK_MSG(delta.dim() == v.dim, "update_data dimension mismatch");
  for (std::size_t k = 0; k < v.dim; ++k) v.input[k] += delta.s[k];
  v.input[v.dim] += delta.w;
}

/// Memory soft error: flips one bit of one stored flow variable (CORR: a
/// child report or the global view). Push-sum stores none and draws nothing.
/// Flow algorithms heal at the next mirror on the edge, except state that
/// accumulates increments from the corrupted value — PCF kFast's ϕ, and the
/// PF cached-sum ablation, which deliberately never learns of the flip.
template <Algorithm A>
bool corrupt_stored_flow(const NodeRows& v, Rng& rng) {
  if constexpr (A == kPS) {
    return false;
  } else {
    double* victim = nullptr;
    if constexpr (A == kPCF) {
      const auto slot = static_cast<std::size_t>(rng.below(v.degree));
      victim = v.pcf_flow(slot, static_cast<std::size_t>(rng.below(2)));
    } else if constexpr (A == kCORR) {
      const auto index = static_cast<std::size_t>(rng.below(v.degree + 1));
      victim = index < v.degree ? v.report(index) : v.global;
    } else {
      victim = v.flow(static_cast<std::size_t>(rng.below(v.degree)));
    }
    // The drawn component is the flat row index (dim maps to w).
    flip_bit(victim[static_cast<std::size_t>(rng.below(v.dim + 1))], rng);
    return true;
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

/// Copies the stored flows toward live slot `slot` into `out` (slot order
/// pairs with the peer's); returns the count, 0 without flow state.
template <Algorithm A>
std::size_t flows_toward(const NodeRows& v, std::size_t slot, std::span<Mass> out) {
  constexpr std::size_t rows = Shape<A>::kFlowRows;
  if (rows == 0 || out.size() < rows) return 0;
  for (std::size_t r = 0; r < rows; ++r) assign_mass(out[r], v.flow(slot * rows + r), v.dim);
  return rows;
}

/// Largest |component| over the live flow state.
template <Algorithm A>
[[nodiscard]] double max_abs_flow_component(const NodeRows& v) noexcept {
  constexpr std::size_t rows = Shape<A>::kFlowRows;
  double best = 0.0;
  for (std::size_t s = 0; s < v.degree; ++s) {
    if (v.alive[s] == 0) continue;
    const double* f = v.flow(s * rows);
    for (std::size_t k = 0; k < rows * v.stride(); ++k) best = std::max(best, std::fabs(f[k]));
  }
  return best;
}

/// PCF: the handshake state of `slot` (test and invariant-checker hook).
[[nodiscard]] inline PcfEdgeView pcf_edge_view(const NodeRows& v, std::size_t slot) {
  return PcfEdgeView{to_mass(v.pcf_flow(slot, 0), v.dim), to_mass(v.pcf_flow(slot, 1), v.dim),
                     static_cast<std::uint8_t>(v.active[slot] + 1), v.cycle[slot]};
}

template <Algorithm A>
[[nodiscard]] std::string_view name(const ReducerConfig& config) noexcept {
  if constexpr (A == kPCF) {
    return config.pcf_variant == PcfVariant::kFast ? "push-cancel-flow/fast"
                                                   : "push-cancel-flow/robust";
  } else {
    (void)config;
    return to_string(A);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint rows (DESIGN.md §8). The row sequence is one per algorithm; the
// row encoding belongs to the layout.
// ---------------------------------------------------------------------------

/// Dim-prefixed rows, the bytes every engine but the kArena sync engine
/// writes: rows as state_io masses (u8 dimension prefix), flags as strict
/// booleans, and PF always carries its cache row.
struct PrefixedRows {
  static constexpr bool kAlwaysCacheRow = true;
  template <class IO>
  static void row(IO& io, double* r, std::size_t dim) {
    io.expect(static_cast<std::uint8_t>(dim), "checkpoint: mass dimension mismatch");
    for (std::size_t k = 0; k <= dim; ++k) io.f64(r[k]);
  }
  template <class IO>
  static void flag(IO& io, std::uint8_t& f) {
    io.boolean(f);
  }
};

/// Arena layout: raw stride rows, flags as plain bytes.
struct RawRows {
  static constexpr bool kAlwaysCacheRow = false;
  template <class IO>
  static void row(IO& io, double* r, std::size_t dim) {
    for (std::size_t k = 0; k <= dim; ++k) io.f64(r[k]);
  }
  template <class IO>
  static void flag(IO& io, std::uint8_t& f) {
    io.flag(f);
  }
};

/// Node v's mutable rows (after the layout's liveness flags), written
/// through a BinaryWriter or read back through a BinaryReader for the same
/// neighborhood and configuration (reads throw BinioError on malformed input).
template <Algorithm A, class Codec, class IO>
void transfer(IO& io, const NodeRows& v) {
  const std::size_t dim = v.dim;
  Codec::row(io, v.input, dim);  // mutable via update_data
  for (std::size_t s = 0; s < v.degree; ++s) {
    if constexpr (A == kPF) {
      Codec::row(io, v.flow(s), dim);
    } else if constexpr (A == kPCF) {
      Codec::row(io, v.pcf_flow(s, 0), dim);
      Codec::row(io, v.pcf_flow(s, 1), dim);
      io.u8(v.active[s]);
      if (v.active[s] > 1) throw BinioError("checkpoint: pcf active slot out of range");
      io.u64(v.cycle[s]);
      Codec::row(io, v.pending_row(s), dim);
    } else if constexpr (A == kFU || A == kFMH) {
      Codec::row(io, v.flow(s), dim);
      Codec::row(io, v.report(s), dim);
      Codec::flag(io, v.have_report[s]);
    } else if constexpr (A == kCORR) {
      Codec::row(io, v.report(s), dim);
      Codec::flag(io, v.have_report[s]);
      Codec::flag(io, v.child[s]);
    }
  }
  if constexpr (A == kPF) {
    if (v.cached != nullptr) {
      Codec::row(io, v.cached, dim);
    } else if (Codec::kAlwaysCacheRow) {
      double zero[kMaxStride] = {};  // written as zeros, read and dropped
      Codec::row(io, zero, dim);
    }
  } else if constexpr (A == kPCF) {
    Codec::row(io, v.phi, dim);
    io.u64(*v.role_swaps);
  } else if constexpr (A == kCORR) {
    Codec::row(io, v.global, dim);
    Codec::flag(io, *v.have_global);
  }
}

}  // namespace protocol
}  // namespace pcf::core
