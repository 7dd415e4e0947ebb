#include "support/check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/stats.hpp"

namespace pcf {
namespace {

TEST(Check, PassingExpressionDoesNotThrow) {
  EXPECT_NO_THROW(PCF_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(PCF_CHECK_MSG(true, "never rendered"));
}

TEST(Check, FailureThrowsContractViolationWithExpressionAndLocation) {
  try {
    PCF_CHECK(2 > 3);
    FAIL() << "PCF_CHECK(false) must throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contract violated"), std::string::npos) << what;
    EXPECT_NE(what.find("2 > 3"), std::string::npos) << what;
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
  }
}

TEST(Check, LocationIsRelativeToTheSourceTree) {
  // The build maps the source directory away (-fmacro-prefix-map), so a
  // contract message reads the same from every checkout: the CLI prints it.
  try {
    (void)quantile({}, 0.5);
    FAIL() << "quantile of an empty range must throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/support/stats.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  }
}

TEST(Check, MessageVersionStreamsTheMessage) {
  const int answer = 42;
  try {
    PCF_CHECK_MSG(answer == 7, "answer was " << answer);
    FAIL() << "PCF_CHECK_MSG(false) must throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("answer == 7"), std::string::npos) << what;
    EXPECT_NE(what.find("answer was 42"), std::string::npos) << what;
  }
}

TEST(Check, ContractViolationIsALogicError) {
  // Callers (the CLI's exit-code-2 path, tests) catch std::logic_error.
  EXPECT_THROW(PCF_CHECK(false), std::logic_error);
}

TEST(Check, MessageIsOnlyEvaluatedOnFailure) {
  int evaluations = 0;
  const auto count = [&evaluations] {
    ++evaluations;
    return "expensive";
  };
  PCF_CHECK_MSG(true, count());
  EXPECT_EQ(evaluations, 0);
}

TEST(Check, AssertMatchesTheBuildMode) {
#ifdef NDEBUG
  // Release builds compile PCF_ASSERT out entirely — including its side
  // effects' evaluation.
  int evaluated = 0;
  PCF_ASSERT(++evaluated > 0);
  EXPECT_EQ(evaluated, 0);
#else
  EXPECT_NO_THROW(PCF_ASSERT(true));
  EXPECT_THROW(PCF_ASSERT(false), ContractViolation);
#endif
}

}  // namespace
}  // namespace pcf
