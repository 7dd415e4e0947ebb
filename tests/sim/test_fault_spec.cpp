#include "sim/fault_spec.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace pcf::sim {
namespace {

TEST(FaultSpec, EmptyStringsGiveEmptyPlan) {
  const auto plan = parse_fault_spec("", "", "");
  EXPECT_TRUE(plan.link_failures.empty());
  EXPECT_TRUE(plan.node_crashes.empty());
  EXPECT_TRUE(plan.data_updates.empty());
}

TEST(FaultSpec, ParsesSingleLinkFailure) {
  const auto plan = parse_fault_spec("75:0:1", "", "");
  ASSERT_EQ(plan.link_failures.size(), 1u);
  EXPECT_EQ(plan.link_failures[0].time, 75.0);
  EXPECT_EQ(plan.link_failures[0].a, 0u);
  EXPECT_EQ(plan.link_failures[0].b, 1u);
}

TEST(FaultSpec, ParsesMultipleLinkFailures) {
  const auto plan = parse_fault_spec("75:0:1,120.5:2:3", "", "");
  ASSERT_EQ(plan.link_failures.size(), 2u);
  EXPECT_EQ(plan.link_failures[1].time, 120.5);
  EXPECT_EQ(plan.link_failures[1].a, 2u);
}

TEST(FaultSpec, ParsesCrashes) {
  const auto plan = parse_fault_spec("", "100:5,200:7", "");
  ASSERT_EQ(plan.node_crashes.size(), 2u);
  EXPECT_EQ(plan.node_crashes[0].node, 5u);
  EXPECT_EQ(plan.node_crashes[1].time, 200.0);
}

TEST(FaultSpec, ParsesDataUpdatesWithSignedDeltas) {
  const auto plan = parse_fault_spec("", "", "50:3:2.5,80:0:-1");
  ASSERT_EQ(plan.data_updates.size(), 2u);
  EXPECT_EQ(plan.data_updates[0].delta.s[0], 2.5);
  EXPECT_EQ(plan.data_updates[0].delta.w, 0.0);
  EXPECT_EQ(plan.data_updates[1].delta.s[0], -1.0);
  EXPECT_EQ(plan.data_updates[1].node, 0u);
}

TEST(FaultSpec, RejectsWrongFieldCounts) {
  EXPECT_THROW(parse_fault_spec("75:0", "", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "100", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "", "50:3"), ContractViolation);
}

TEST(FaultSpec, RejectsMalformedNumbers) {
  EXPECT_THROW(parse_fault_spec("abc:0:1", "", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("75:x:1", "", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "", "50:3:zz"), ContractViolation);
}

TEST(FaultSpec, ParsesRecoveryEventLists) {
  FaultSpecInput spec;
  spec.link_heals = "200:0:1,350:2:3";
  spec.node_rejoins = "250:5";
  spec.false_detects = "90:2:3:25";
  const auto plan = parse_fault_spec(spec);
  ASSERT_EQ(plan.link_heals.size(), 2u);
  EXPECT_EQ(plan.link_heals[0].time, 200.0);
  EXPECT_EQ(plan.link_heals[1].b, 3u);
  ASSERT_EQ(plan.node_rejoins.size(), 1u);
  EXPECT_EQ(plan.node_rejoins[0].node, 5u);
  ASSERT_EQ(plan.false_detects.size(), 1u);
  EXPECT_EQ(plan.false_detects[0].a, 2u);
  EXPECT_EQ(plan.false_detects[0].clear_delay, 25.0);
}

TEST(FaultSpec, SortsEventListsByTime) {
  FaultSpecInput spec;
  spec.link_failures = "120:2:3,75:0:1";
  spec.node_crashes = "200:7,100:5";
  spec.data_updates = "80:0:-1,50:3:2.5";
  spec.link_heals = "350:2:3,200:0:1";
  spec.node_rejoins = "300:7,250:5";
  spec.false_detects = "90:2:3:25,40:0:1:10";
  const auto plan = parse_fault_spec(spec);
  EXPECT_EQ(plan.link_failures[0].time, 75.0);
  EXPECT_EQ(plan.node_crashes[0].node, 5u);
  EXPECT_EQ(plan.data_updates[0].delta.s[0], 2.5);
  EXPECT_EQ(plan.link_heals[0].time, 200.0);
  EXPECT_EQ(plan.node_rejoins[0].node, 5u);
  EXPECT_EQ(plan.false_detects[0].time, 40.0);
}

TEST(FaultSpec, RejectsNegativeEventTimes) {
  EXPECT_THROW(parse_fault_spec("-75:0:1", "", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "-100:5", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "", "-50:3:2.5"), ContractViolation);
  FaultSpecInput spec;
  spec.link_heals = "-200:0:1";
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
  spec = {};
  spec.node_rejoins = "-250:5";
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
  spec = {};
  spec.false_detects = "-90:2:3:25";
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
}

TEST(FaultSpec, RejectsNegativeFalseDetectClearDelay) {
  FaultSpecInput spec;
  spec.false_detects = "90:2:3:-25";
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
}

TEST(FaultSpec, RejectsNegativeNodeIds) {
  EXPECT_THROW(parse_fault_spec("75:-1:1", "", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "100:-5", ""), ContractViolation);
}

TEST(FaultSpec, RejectsOutOfRangeNodeIdsWhenSized) {
  FaultSpecInput spec;
  spec.link_failures = "75:0:16";
  EXPECT_THROW(parse_fault_spec(spec, 16), ContractViolation);
  EXPECT_NO_THROW(parse_fault_spec(spec));  // unchecked without a size
  spec = {};
  spec.node_crashes = "100:99";
  EXPECT_THROW(parse_fault_spec(spec, 16), ContractViolation);
  spec = {};
  spec.node_rejoins = "250:16";
  EXPECT_THROW(parse_fault_spec(spec, 16), ContractViolation);
  spec = {};
  spec.false_detects = "90:2:16:25";
  EXPECT_THROW(parse_fault_spec(spec, 16), ContractViolation);
  spec.false_detects = "90:2:15:25";
  EXPECT_NO_THROW(parse_fault_spec(spec, 16));
}

TEST(FaultSpec, RejectsNodeIdsThatWrapPastNodeId) {
  // 2^32 + 1 would narrow to node 1.
  FaultSpecInput spec;
  spec.node_crashes = "10:4294967297";
  EXPECT_THROW(parse_fault_spec(spec, 8), ContractViolation);
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
  spec.node_crashes = "10:99999999999999999999999";  // past unsigned long long
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
  spec.node_crashes = "10:4294967295";  // the largest NodeId
  EXPECT_NO_THROW(parse_fault_spec(spec));
  spec = {};
  spec.link_failures = "10:0:4294967296";
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
}

TEST(FaultSpec, RejectsNonFiniteNumbers) {
  EXPECT_THROW(parse_fault_spec("", "", "5:3:nan"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "", "5:3:inf"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "", "5:3:-1e999"), ContractViolation);
  EXPECT_THROW(parse_fault_spec("inf:0:1", "", ""), ContractViolation);
  EXPECT_THROW(parse_fault_spec("", "nan:2", ""), ContractViolation);
  FaultSpecInput spec;
  spec.false_detects = "90:2:3:inf";
  EXPECT_THROW(parse_fault_spec(spec), ContractViolation);
  spec.false_detects = "90:2:3:25";
  EXPECT_NO_THROW(parse_fault_spec(spec));
}

TEST(FaultSpec, RecoveryFormattersRoundTrip) {
  FaultSpecInput spec;
  spec.link_heals = "200:0:1,350.25:2:3";
  spec.node_rejoins = "250:5,300:7";
  spec.false_detects = "90:2:3:25,140:4:5:0.5";
  const auto plan = parse_fault_spec(spec);
  EXPECT_EQ(format_link_heals(plan.link_heals), spec.link_heals);
  EXPECT_EQ(format_node_rejoins(plan.node_rejoins), spec.node_rejoins);
  EXPECT_EQ(format_false_detects(plan.false_detects), spec.false_detects);
}

}  // namespace
}  // namespace pcf::sim
