#include "sim/faults.hpp"

#include <cmath>
#include <cstring>

#include "support/check.hpp"

namespace pcf::sim {

void check_fault_times(const FaultPlan& plan) {
  const auto finite = [](double t) { return std::isfinite(t); };
  PCF_CHECK_MSG(finite(plan.detection_delay), "fault plan: non-finite detection delay");
  PCF_CHECK_MSG(finite(plan.reorder_jitter), "fault plan: non-finite reorder jitter");
  for (const auto& e : plan.link_failures) {
    PCF_CHECK_MSG(finite(e.time), "fault plan: non-finite link failure time");
  }
  for (const auto& e : plan.node_crashes) {
    PCF_CHECK_MSG(finite(e.time), "fault plan: non-finite crash time");
  }
  for (const auto& e : plan.data_updates) {
    PCF_CHECK_MSG(finite(e.time), "fault plan: non-finite data update time");
  }
  for (const auto& e : plan.link_heals) {
    PCF_CHECK_MSG(finite(e.time), "fault plan: non-finite heal time");
  }
  for (const auto& e : plan.node_rejoins) {
    PCF_CHECK_MSG(finite(e.time), "fault plan: non-finite rejoin time");
  }
  for (const auto& e : plan.false_detects) {
    PCF_CHECK_MSG(finite(e.time) && finite(e.clear_delay),
                  "fault plan: non-finite false-detect time or clear delay");
  }
}

void flip_random_bit(Packet& packet, Rng& rng, bool any_bit) {
  // Candidate doubles: all value components and weights of both masses.
  std::vector<double*> slots;
  slots.reserve(packet.a.dim() + packet.b.dim() + 2);
  for (auto& v : packet.a.s) slots.push_back(&v);
  slots.push_back(&packet.a.w);
  for (auto& v : packet.b.s) slots.push_back(&v);
  slots.push_back(&packet.b.w);

  double* victim = slots[static_cast<std::size_t>(rng.below(slots.size()))];
  // Mantissa bits 0..51 plus the sign bit 63 by default; exponent bits
  // (52..62) only when any_bit is requested.
  std::uint64_t bit_index;
  if (any_bit) {
    bit_index = rng.below(64);
  } else {
    bit_index = rng.below(53);
    if (bit_index == 52) bit_index = 63;  // map the 53rd choice to the sign bit
  }
  std::uint64_t bits;
  std::memcpy(&bits, victim, sizeof bits);
  bits ^= (std::uint64_t{1} << bit_index);
  std::memcpy(victim, &bits, sizeof bits);
}

}  // namespace pcf::sim
