#include "sim/schedule.hpp"

#include "support/check.hpp"

namespace pcf::sim {

std::vector<Matching> bus_matchings(std::size_t n) {
  PCF_CHECK_MSG(n >= 2, "bus matchings need at least two nodes");
  std::vector<Matching> out(2);
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    out[0].push_back({static_cast<NodeId>(i), static_cast<NodeId>(i + 1)});
  }
  for (std::size_t i = 1; i + 1 < n; i += 2) {
    out[1].push_back({static_cast<NodeId>(i), static_cast<NodeId>(i + 1)});
  }
  return out;
}

std::vector<Matching> hypercube_matchings(std::size_t dims) {
  PCF_CHECK_MSG(dims >= 1 && dims < 31, "hypercube dimension out of range");
  const std::size_t n = std::size_t{1} << dims;
  std::vector<Matching> out(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    for (NodeId i = 0; i < n; ++i) {
      const NodeId j = i ^ static_cast<NodeId>(1u << d);
      if (i < j) out[d].push_back({i, j});
    }
  }
  return out;
}

MatchingScheduleRunner::MatchingScheduleRunner(const net::Topology& topology,
                                               std::span<const core::Mass> initial,
                                               core::Algorithm algorithm,
                                               std::vector<Matching> matchings,
                                               core::ReducerConfig reducer)
    : fleet_(algorithm, reducer, topology, initial), matchings_(std::move(matchings)) {
  PCF_CHECK_MSG(!matchings_.empty(), "at least one matching required");
  for (const auto& matching : matchings_) {
    for (const auto& [a, b] : matching) {
      PCF_CHECK_MSG(topology.has_edge(a, b), "matching uses non-edge " << a << "-" << b);
    }
  }
}

void MatchingScheduleRunner::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) {
    const Matching& matching = matchings_[round_ % matchings_.size()];
    // Sequential pairwise exchange: a→b is delivered before b replies. For
    // flow-based protocols this is essential — if both directions sent
    // simultaneously, each mirror would overwrite the peer's fresh virtual
    // send with stale state (the same transient that an occasional crossing
    // causes and self-heals in the random engines, but which a schedule that
    // crosses on EVERY edge EVERY round would never recover from).
    for (const auto& [a, b] : matching) {
      if (auto out = fleet_.make_message_to(a, b)) fleet_.receive(b, a, out->packet);
      if (auto out = fleet_.make_message_to(b, a)) fleet_.receive(a, b, out->packet);
    }
    ++round_;
  }
}

std::vector<double> MatchingScheduleRunner::estimates(std::size_t k) const {
  std::vector<double> out;
  out.reserve(size());
  for (NodeId i = 0; i < size(); ++i) out.push_back(fleet_.estimate(i, k));
  return out;
}

}  // namespace pcf::sim
