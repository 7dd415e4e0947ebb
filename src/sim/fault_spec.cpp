#include "sim/fault_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "support/check.hpp"

namespace pcf::sim {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  if (s.empty()) return parts;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    parts.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return parts;
}

double to_double(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  PCF_CHECK_MSG(end && *end == '\0' && !s.empty() && std::isfinite(v),
                "bad " << what << " '" << s << "'");
  return v;
}

double to_time(const std::string& s, const std::string& item) {
  const double t = to_double(s, "time");
  PCF_CHECK_MSG(t >= 0.0,
                "event time must be non-negative, got '" << s << "' in '" << item << "'");
  return t;
}

/// A node id below `node_count` (below 2^32 when the network size is not
/// known, node_count == 0), range-checked before it is narrowed to NodeId.
NodeId to_node_checked(const std::string& s, std::size_t node_count, const std::string& item) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  PCF_CHECK_MSG(end && *end == '\0' && !s.empty() && s[0] != '-' && errno != ERANGE,
                "bad node id '" << s << "'");
  PCF_CHECK_MSG(v <= std::numeric_limits<NodeId>::max(),
                "node id " << s << " out of range in '" << item << "'");
  PCF_CHECK_MSG(node_count == 0 || v < node_count, "node id " << v << " out of range in '"
                                                              << item << "' (network has "
                                                              << node_count << " nodes)");
  return static_cast<NodeId>(v);
}

/// Shortest representation that strtod round-trips exactly (%.17g always
/// does; prefer %g when it survives the round trip).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  if (std::strtod(buf, nullptr) != v) std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Event>
void sort_by_time(std::vector<Event>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) { return x.time < y.time; });
}

}  // namespace

FaultPlan parse_fault_spec(const FaultSpecInput& spec, std::size_t node_count) {
  FaultPlan plan;
  for (const auto& item : split(spec.link_failures, ',')) {
    const auto fields = split(item, ':');
    PCF_CHECK_MSG(fields.size() == 3, "link failure wants T:A:B, got '" << item << "'");
    plan.link_failures.push_back({to_time(fields[0], item),
                                  to_node_checked(fields[1], node_count, item),
                                  to_node_checked(fields[2], node_count, item)});
  }
  for (const auto& item : split(spec.node_crashes, ',')) {
    const auto fields = split(item, ':');
    PCF_CHECK_MSG(fields.size() == 2, "node crash wants T:N, got '" << item << "'");
    plan.node_crashes.push_back(
        {to_time(fields[0], item), to_node_checked(fields[1], node_count, item)});
  }
  for (const auto& item : split(spec.data_updates, ',')) {
    const auto fields = split(item, ':');
    PCF_CHECK_MSG(fields.size() == 3, "data update wants T:N:DELTA, got '" << item << "'");
    plan.data_updates.push_back({to_time(fields[0], item),
                                 to_node_checked(fields[1], node_count, item),
                                 core::Mass::scalar(to_double(fields[2], "delta"), 0.0)});
  }
  for (const auto& item : split(spec.link_heals, ',')) {
    const auto fields = split(item, ':');
    PCF_CHECK_MSG(fields.size() == 3, "link heal wants T:A:B, got '" << item << "'");
    plan.link_heals.push_back({to_time(fields[0], item),
                               to_node_checked(fields[1], node_count, item),
                               to_node_checked(fields[2], node_count, item)});
  }
  for (const auto& item : split(spec.node_rejoins, ',')) {
    const auto fields = split(item, ':');
    PCF_CHECK_MSG(fields.size() == 2, "node rejoin wants T:N, got '" << item << "'");
    plan.node_rejoins.push_back(
        {to_time(fields[0], item), to_node_checked(fields[1], node_count, item)});
  }
  for (const auto& item : split(spec.false_detects, ',')) {
    const auto fields = split(item, ':');
    PCF_CHECK_MSG(fields.size() == 4, "false detect wants T:A:B:D, got '" << item << "'");
    const double clear_delay = to_double(fields[3], "clear delay");
    PCF_CHECK_MSG(clear_delay >= 0.0,
                  "false-detect clear delay must be non-negative in '" << item << "'");
    plan.false_detects.push_back({to_time(fields[0], item),
                                  to_node_checked(fields[1], node_count, item),
                                  to_node_checked(fields[2], node_count, item), clear_delay});
  }
  // Engines process event lists through time-ordered cursors; sorting here
  // lets specs be written in any order.
  sort_by_time(plan.link_failures);
  sort_by_time(plan.node_crashes);
  sort_by_time(plan.data_updates);
  sort_by_time(plan.link_heals);
  sort_by_time(plan.node_rejoins);
  sort_by_time(plan.false_detects);
  return plan;
}

FaultPlan parse_fault_spec(const std::string& link_failures, const std::string& node_crashes,
                           const std::string& data_updates) {
  FaultSpecInput spec;
  spec.link_failures = link_failures;
  spec.node_crashes = node_crashes;
  spec.data_updates = data_updates;
  return parse_fault_spec(spec);
}

std::string format_link_failures(std::span<const LinkFailureEvent> events) {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += ',';
    out += format_double(e.time) + ':' + std::to_string(e.a) + ':' + std::to_string(e.b);
  }
  return out;
}

std::string format_node_crashes(std::span<const NodeCrashEvent> events) {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += ',';
    out += format_double(e.time) + ':' + std::to_string(e.node);
  }
  return out;
}

std::string format_data_updates(std::span<const DataUpdateEvent> events) {
  std::string out;
  for (const auto& e : events) {
    PCF_CHECK_MSG(e.delta.dim() == 1, "only scalar data updates have a spec representation");
    if (!out.empty()) out += ',';
    out += format_double(e.time) + ':' + std::to_string(e.node) + ':' + format_double(e.delta.s[0]);
  }
  return out;
}

std::string format_link_heals(std::span<const LinkHealEvent> events) {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += ',';
    out += format_double(e.time) + ':' + std::to_string(e.a) + ':' + std::to_string(e.b);
  }
  return out;
}

std::string format_node_rejoins(std::span<const NodeRejoinEvent> events) {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += ',';
    out += format_double(e.time) + ':' + std::to_string(e.node);
  }
  return out;
}

std::string format_false_detects(std::span<const FalseDetectEvent> events) {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += ',';
    out += format_double(e.time) + ':' + std::to_string(e.a) + ':' + std::to_string(e.b) + ':' +
           format_double(e.clear_delay);
  }
  return out;
}

}  // namespace pcf::sim
