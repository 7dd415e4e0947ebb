// Kernel rounding pin: protocol::local_mass and protocol::estimate must round
// exactly like a straightforward slot-outer reference — sum the live slots in
// ascending slot order per component, then combine — for every algorithm and
// variant, at every payload dimension. The kernels may visit components in
// any order (they run components outer to keep each accumulator in a
// register); what this test pins is the per-component operation sequence,
// compared bitwise on random arena rows with some dead slots.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/protocol.hpp"
#include "net/topology.hpp"
#include "net/tree_schedule.hpp"

namespace pcf::core {
namespace {

using protocol::NodeRows;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// ---- the reference: the slot-outer loop order, one row at a time ----

template <Algorithm A>
void ref_local_mass(const NodeRows& v, double* out) {
  const std::size_t st = v.stride();
  for (std::size_t k = 0; k < st; ++k) out[k] = v.input[k];
  if constexpr (A == Algorithm::kPushFlow) {
    if (v.config->pf_cached_flow_sum) {
      for (std::size_t k = 0; k < st; ++k) out[k] = v.input[k] - v.cached[k];
      return;
    }
    std::vector<double> sum(st, 0.0);
    for (std::size_t s = 0; s < v.degree; ++s) {
      if (v.alive[s] == 0) continue;
      for (std::size_t k = 0; k < st; ++k) sum[k] += v.flow(s)[k];
    }
    for (std::size_t k = 0; k < st; ++k) out[k] = v.input[k] - sum[k];
  } else if constexpr (A == Algorithm::kPushCancelFlow) {
    for (std::size_t k = 0; k < st; ++k) out[k] = v.input[k] - v.phi[k];
    if (v.config->pcf_variant == PcfVariant::kFast) return;
    std::vector<double> sum(st, 0.0);
    for (std::size_t s = 0; s < v.degree; ++s) {
      if (v.alive[s] == 0) continue;
      for (std::size_t k = 0; k < st; ++k) sum[k] += v.pcf_flow(s, 0)[k];
      for (std::size_t k = 0; k < st; ++k) sum[k] += v.pcf_flow(s, 1)[k];
    }
    for (std::size_t k = 0; k < st; ++k) out[k] -= sum[k];
  } else if constexpr (A == Algorithm::kFlowUpdating || A == Algorithm::kFuMassHybrid) {
    for (std::size_t s = 0; s < v.degree; ++s) {
      if (v.alive[s] == 0) continue;
      for (std::size_t k = 0; k < st; ++k) out[k] -= v.flow(s)[k];
    }
  }
}

template <Algorithm A>
double ref_estimate(const NodeRows& v, std::size_t k) {
  const std::size_t st = v.stride();
  std::vector<double> buf(st);
  if constexpr (A == Algorithm::kFlowUpdating) {
    ref_local_mass<A>(v, buf.data());
    std::size_t count = 1;
    for (std::size_t s = 0; s < v.degree; ++s) {
      if (v.alive[s] == 0 || v.have_report[s] == 0) continue;
      for (std::size_t c = 0; c < st; ++c) buf[c] += v.report(s)[c];
      ++count;
    }
    const double inv = 1.0 / static_cast<double>(count);
    for (double& x : buf) x *= inv;
  } else if constexpr (A == Algorithm::kCorrectionAllreduce) {
    if (*v.have_global != 0 && protocol::parent_slot(v).has_value()) {
      for (std::size_t c = 0; c < st; ++c) buf[c] = v.global[c];
    } else {
      for (std::size_t c = 0; c < st; ++c) buf[c] = v.input[c];
      for (std::size_t s = 0; s < v.degree; ++s) {
        if (v.alive[s] == 0 || v.child[s] == 0 || v.have_report[s] == 0) continue;
        for (std::size_t c = 0; c < st; ++c) buf[c] += v.report(s)[c];
      }
    }
  } else {
    ref_local_mass<A>(v, buf.data());
  }
  if (buf[v.dim] == 0.0) return 0.0;
  return buf[k] / buf[v.dim];
}

// ---- random rows ----

/// Mixed signs and magnitudes over 40 binades, so a reassociated sum rounds
/// differently; a few exact zeros (zero weights reach the w == 0 branch).
double draw(Rng& rng) {
  if (rng.chance(0.1)) return 0.0;
  const int binade = static_cast<int>(rng.below(40)) - 20;
  const double magnitude = std::ldexp(rng.uniform(0.5, 1.0), binade);
  return rng.chance(0.5) ? -magnitude : magnitude;
}

void fill(double* row, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) row[i] = draw(rng);
}

void flags(std::uint8_t* f, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) f[i] = rng.chance(0.7) ? 1 : 0;
}

/// Overwrites every row node i's view exposes with random data.
template <Algorithm A>
void randomize(const NodeRows& v, Rng& rng) {
  const std::size_t st = v.stride();
  fill(v.input, st, rng);
  fill(v.flows, v.degree * protocol::Shape<A>::kFlowRows * st, rng);
  if (v.cached != nullptr) fill(v.cached, st, rng);
  if (v.phi != nullptr) fill(v.phi, st, rng);
  if constexpr (protocol::Shape<A>::kReports) {
    fill(v.reports, v.degree * st, rng);
    flags(v.have_report, v.degree, rng);
  }
  if constexpr (A == Algorithm::kCorrectionAllreduce) {
    fill(v.global, st, rng);
    flags(v.child, v.degree, rng);
    flags(v.have_global, 1, rng);
  }
}

struct Case {
  Algorithm algorithm;
  const char* name;
  PcfVariant variant = PcfVariant::kRobust;
  bool pf_cached = false;
};

// gtest would otherwise list the case by its bytes, name pointer included.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class KernelRounding : public ::testing::TestWithParam<Case> {};

template <Algorithm A>
void check_fleet(const net::Topology& topology, ReducerConfig config, std::size_t dim,
                 std::uint64_t seed) {
  if constexpr (A == Algorithm::kCorrectionAllreduce) {
    config.tree = std::make_shared<const net::TreeSchedule>(
        net::build_tree_schedule(topology, net::TreeKind::kBfs));
  }
  const std::vector<Mass> initial(topology.size(), Mass::zero(dim));
  ArenaFleet fleet(A, config, topology, initial);
  Rng rng(seed);
  // Kill about a quarter of the directed slots (each side independently).
  for (NodeId i = 0; i < fleet.size(); ++i) {
    for (std::size_t s = 0; s < fleet.degree(i); ++s) {
      if (rng.chance(0.25)) fleet.set_alive(i, s, false);
    }
  }
  for (NodeId i = 0; i < fleet.size(); ++i) {
    const NodeRows v = fleet.rows<A>(i);
    randomize<A>(v, rng);
    double got[protocol::kMaxStride];
    std::vector<double> want(v.stride());
    protocol::local_mass<A>(v, got);
    ref_local_mass<A>(v, want.data());
    for (std::size_t k = 0; k <= dim; ++k) {
      ASSERT_EQ(bits_of(got[k]), bits_of(want[k]))
          << "local_mass node " << i << " component " << k << ": " << got[k] << " vs " << want[k];
    }
    for (std::size_t k = 0; k < dim; ++k) {
      const double e = protocol::estimate<A>(v, k);
      const double r = ref_estimate<A>(v, k);
      ASSERT_EQ(bits_of(e), bits_of(r))
          << "estimate node " << i << " component " << k << ": " << e << " vs " << r;
    }
  }
}

TEST_P(KernelRounding, MatchesSlotOuterReferenceBitwise) {
  const Case& c = GetParam();
  ReducerConfig config;
  config.pcf_variant = c.variant;
  config.pf_cached_flow_sum = c.pf_cached;
  Rng topo_rng(5);
  const std::vector<net::Topology> topologies = {
      net::Topology::barabasi_albert(24, 3, topo_rng),  // degrees 3 .. ~12
      net::Topology::star(18),                           // one hub of degree 17
  };
  for (std::size_t dim = 1; dim <= kMaxDim; ++dim) {
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " topology " + std::to_string(t));
      visit(c.algorithm, [&]<Algorithm A>() {
        check_fleet<A>(topologies[t], config, dim, 1000 * dim + t);
      });
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, KernelRounding,
    ::testing::Values(Case{Algorithm::kPushSum, "ps"}, Case{Algorithm::kPushFlow, "pf"},
                      Case{Algorithm::kPushFlow, "pf_cached", PcfVariant::kRobust, true},
                      Case{Algorithm::kPushCancelFlow, "pcf_robust"},
                      Case{Algorithm::kPushCancelFlow, "pcf_fast", PcfVariant::kFast},
                      Case{Algorithm::kFlowUpdating, "fu"},
                      Case{Algorithm::kCorrectionAllreduce, "corr"},
                      Case{Algorithm::kFuMassHybrid, "fumd"}),
    [](const ::testing::TestParamInfo<Case>& param) { return std::string(param.param.name); });

}  // namespace
}  // namespace pcf::core
