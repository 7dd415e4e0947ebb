// Tests for pcflow-lint: the fixture tree under tests/lint/fixtures is a
// miniature project whose violations are annotated line by line; this suite
// asserts the exact (file, line, rule) tuples the tool reports, that
// suppressions suppress (and misbehaving ones do not), that rule toggles
// work, and that two runs over the same tree produce byte-identical reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"
#include "tools/lint/lint.hpp"

namespace pcf::lint {
namespace {

// Set by tests/CMakeLists.txt; points at tests/lint/fixtures in the source tree.
constexpr const char* kFixtureDir = PCF_LINT_FIXTURE_DIR;

/// Compact (file, line, rule) view of a diagnostic list for exact matching.
[[nodiscard]] std::vector<std::string> keys(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  out.reserve(diags.size());
  for (const auto& d : diags) {
    out.push_back(d.file + ":" + std::to_string(d.line) + ":" + std::string(to_string(d.rule)));
  }
  return out;
}

[[nodiscard]] std::vector<std::string> lint_keys(std::string_view path, std::string_view src,
                                                 const Options& options = {}) {
  return keys(lint_source(path, src, options));
}

// ------------------------------------------------------------ fixtures -----

TEST(LintFixtures, WholeTreeMatchesAnnotations) {
  const RunResult result = run_directory(kFixtureDir);
  EXPECT_EQ(result.files_scanned, 14u);
  const std::vector<std::string> expected = {
      "src/core/bad_clock.cpp:15:D1",      // std::time
      "src/core/bad_clock.cpp:16:D1",      // bare time( call
      "src/core/bad_clock.cpp:17:D1",      // steady_clock
      "src/core/bad_clock.cpp:18:D1",      // system_clock
      "src/core/bad_clock.cpp:19:D1",      // getenv
      "src/core/bad_clock.cpp:20:D1",      // rand
      "src/core/bad_layering.cpp:4:L1",    // core includes sim/
      "src/core/bad_layering.cpp:5:L1",    // core includes runtime/
      "src/core/bad_reducer.hpp:17:R1",    // ForgetfulReducer misses both hooks
      "src/core/bad_reducer.hpp:37:R1",    // TreeishReducer misses on_link_down
      "src/core/bad_reducer.hpp:43:R1",    // HybridishReducer misses on_link_up
      "src/core/bad_suppress.cpp:7:LNT",   // allow without reason
      "src/core/bad_suppress.cpp:8:D1",    // ...so the D1 still fires
      "src/core/bad_suppress.cpp:9:LNT",   // allow names unknown rule D9
      "src/core/bad_suppress.cpp:10:D1",   // ...so the D1 still fires
      "src/core/bad_suppress.cpp:11:LNT",  // unused D2 allow
      "src/core/bad_suppress.cpp:12:D1",   // the allow targeted the wrong rule
      "src/core/bad_unordered.cpp:4:D2",   // #include <unordered_map>
      "src/core/bad_unordered.cpp:5:D2",   // #include <unordered_set>
      "src/core/bad_unordered.cpp:8:D2",   // naked declaration
      "src/core/cycle_b.hpp:4:L1",         // include cycle back edge a -> b -> a
      "src/core/torture_lexer.cpp:7:D1",   // std::time — the one line the lexer
                                           // traps (CRLF/raw-string/splice) let through
      "src/linalg/bad_float.cpp:4:F1",     // float type
      "src/linalg/bad_float.cpp:4:F1",     // static_cast<float>
      "src/linalg/bad_float.cpp:5:F1",     // == 1.5
      "src/linalg/bad_float.cpp:6:F1",     // != 2.0e-3
      "src/runtime/bad_guard.hpp:16:T1",   // counter_ next to mutex_, unannotated
      "src/runtime/bad_guard.hpp:17:T1",   // closed_ likewise
      "src/runtime/bad_socket.cpp:6:S1",   // #include <sys/socket.h>
      "src/runtime/bad_socket.cpp:7:S1",   // #include <sys/wait.h>
      "src/runtime/bad_socket.cpp:8:S1",   // #include <poll.h>
      "src/runtime/bad_socket.cpp:11:S1",  // bare socket( call
      "src/runtime/bad_socket.cpp:12:S1",  // ::sendto
      "src/runtime/bad_socket.cpp:13:S1",  // bare poll( call
      "src/runtime/bad_socket.cpp:14:S1",  // bare fork( call
      "src/runtime/bad_socket.cpp:15:S1",  // bare kill( call
      "src/runtime/bad_socket.cpp:16:S1",  // bare waitpid( call
      "src/runtime/bad_socket.cpp:17:D1",  // steady_clock — D1 covers runtime now
      "src/sim/bad_rng.cpp:3:D3",          // #include <random>
      "src/sim/bad_rng.cpp:6:D3",          // std::mt19937
      "src/sim/bad_rng.cpp:7:D3",          // std::uniform_real_distribution
      "src/sim/bad_threads.cpp:4:D4",      // #include <thread>
      "src/sim/bad_threads.cpp:5:D4",      // #include <future>
      "src/sim/bad_threads.cpp:8:D4",      // std::thread
      "src/sim/bad_threads.cpp:9:D4",      // std::jthread
      "src/sim/bad_threads.cpp:10:D4",     // std::async
  };
  EXPECT_EQ(keys(result.diagnostics), expected);
}

TEST(LintFixtures, CleanFileIsClean) {
  const RunResult result = run_files(kFixtureDir, {"src/core/clean.cpp"});
  EXPECT_EQ(result.files_scanned, 1u);
  EXPECT_TRUE(result.diagnostics.empty()) << format_report(result);
}

TEST(LintFixtures, ReportIsByteDeterministic) {
  const std::string a = format_report(run_directory(kFixtureDir));
  const std::string b = format_report(run_directory(kFixtureDir));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("pcflow-lint: 14 file(s) scanned, 46 diagnostic(s)"), std::string::npos) << a;
}

// ------------------------------------------------------------- scoping -----

TEST(LintScoping, D1OnlyFiresInDeterministicPaths) {
  const std::string_view src = "int f() { return std::rand(); }\n";
  EXPECT_EQ(lint_keys("src/core/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/sim/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/net/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/bench/a.cpp", src).size(), 1u);
  // src/runtime is deterministic-scoped too — except the socket boundary,
  // which owns real clocks and sockets by design.
  EXPECT_EQ(lint_keys("src/runtime/a.cpp", src).size(), 1u);
  EXPECT_TRUE(lint_keys("src/runtime/udp.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/runtime/socket_runtime.cpp", src).empty());
  // The CLI, support and tools layers may read the environment / clock.
  EXPECT_TRUE(lint_keys("src/tools/a.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/support/a.cpp", src).empty());
}

TEST(LintScoping, D2AlsoCoversRuntimeAndLinalg) {
  const std::string_view src = "std::unordered_map<int, int> m;\n";
  EXPECT_EQ(lint_keys("src/runtime/a.cpp", src), (std::vector<std::string>{
                                                     "src/runtime/a.cpp:1:D2"}));
  EXPECT_EQ(lint_keys("src/linalg/a.cpp", src).size(), 1u);
  EXPECT_TRUE(lint_keys("src/support/a.cpp", src).empty());
}

TEST(LintScoping, D3AllowsOnlyTheRngModule) {
  const std::string_view src = "std::mt19937 gen(1);\n";
  EXPECT_TRUE(lint_keys("src/support/rng.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/support/rng.hpp", src).empty());
  EXPECT_EQ(lint_keys("src/support/stats.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/tools/a.cpp", src).size(), 1u);  // D3 is tree-wide
}

TEST(LintScoping, D4BansRawThreadsOnlyInDeterministicPaths) {
  const std::string_view src = "void f() { std::thread t([] {}); t.join(); }\n";
  EXPECT_EQ(lint_keys("src/core/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/sim/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/net/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/bench/a.cpp", src).size(), 1u);
  // Generic src/runtime files may NOT spawn threads either — only the named
  // thread owners (threaded runtime + socket boundary) and the support layer,
  // where support/parallel.hpp's workers live.
  EXPECT_EQ(lint_keys("src/runtime/a.cpp", src).size(), 1u);
  EXPECT_TRUE(lint_keys("src/runtime/threaded_runtime.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/runtime/socket_runtime.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/runtime/udp.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/support/parallel.hpp", src).empty());
}

TEST(LintScoping, S1AllowsOnlyTheSocketBoundary) {
  const std::string_view src = "int f() { return fork(); }\n";
  EXPECT_EQ(lint_keys("src/core/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/net/topology.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/sim/a.cpp", src).size(), 1u);
  EXPECT_EQ(lint_keys("src/linalg/a.cpp", src).size(), 1u);
  // Inside src/runtime only the two boundary files may touch the OS; even the
  // net-trial driver and mailbox stay syscall-free.
  EXPECT_EQ(lint_keys("src/runtime/net_trial.cpp", src),
            (std::vector<std::string>{"src/runtime/net_trial.cpp:1:S1"}));
  EXPECT_TRUE(lint_keys("src/runtime/udp.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/runtime/udp.hpp", src).empty());
  EXPECT_TRUE(lint_keys("src/runtime/socket_runtime.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/tools/a.cpp", src).empty());
  EXPECT_TRUE(lint_keys("src/support/a.cpp", src).empty());
}

TEST(LintRulesD4, UnqualifiedNamesAndMembersStayClean) {
  // `thread`/`async` are ordinary words; only the std::-qualified primitive
  // (or the header include) is hand-rolled concurrency.
  EXPECT_TRUE(lint_keys("src/sim/a.cpp",
                        "std::size_t resolve(std::size_t thread) { return thread; }\n"
                        "void g(Pool& p) { p.async(); }\n")
                  .empty());
  EXPECT_EQ(lint_keys("src/sim/a.cpp", "#include <thread>\n").size(), 1u);
  EXPECT_EQ(lint_keys("src/sim/a.cpp", "auto r = std::async(f);\n").size(), 1u);
}

TEST(LintScoping, F1EqualityExemptsOracleFiles) {
  const std::string_view src = "bool f(double x) { return x == 1.25; }\n";
  EXPECT_EQ(lint_keys("src/sim/reduce.cpp", src).size(), 1u);
  EXPECT_TRUE(lint_keys("src/sim/differential.cpp", src).empty());
  // Only the differential oracle is exempt.
  EXPECT_EQ(lint_keys("src/linalg/eigen_ref.cpp", src).size(), 1u);
}

// --------------------------------------------------------------- rules -----

TEST(LintRules, D1MemberNamedTimeIsNotACall) {
  EXPECT_TRUE(lint_keys("src/core/a.cpp", "double f(View v) { return v.time(); }\n").empty());
  EXPECT_TRUE(lint_keys("src/core/a.cpp", "struct S { double time() const; };\n").empty());
  EXPECT_EQ(lint_keys("src/core/a.cpp", "long f() { return time(nullptr); }\n").size(), 1u);
}

TEST(LintRules, D1NeverFiresInCommentsOrStrings) {
  EXPECT_TRUE(lint_keys("src/core/a.cpp",
                        "// calling std::rand() would break determinism\n"
                        "const char* kDoc = \"std::rand() is banned\";\n")
                  .empty());
}

TEST(LintRules, R1SeesThroughFinalAndTemplateBases) {
  // `final`, access specifiers and a template base before Reducer.
  const std::string_view src =
      "class Good final : public Mixin<int>, public Reducer {\n"
      " public:\n"
      "  void on_link_down(NodeId j) override;\n"
      "  void on_link_up(NodeId j) override;\n"
      "};\n"
      "class Bad : public Reducer {\n"
      "  void on_link_down(NodeId j) override;\n"
      "};\n";
  EXPECT_EQ(lint_keys("src/core/a.hpp", src),
            (std::vector<std::string>{"src/core/a.hpp:6:R1"}));
}

TEST(LintRules, R1IgnoresNonReducerClasses) {
  EXPECT_TRUE(lint_keys("src/core/a.hpp",
                        "class A : public Widget {};\n"
                        "class Reducer { void on_link_down(); };\n"  // the base itself
                        "enum class Reducer2 : int {};\n")
                  .empty());
}

TEST(LintRulesS1, MemberAndForeignQualifiedNamesStayClean) {
  // `poll`/`kill`/`select` as member calls or names in another namespace are
  // ordinary words; only the raw syscall shape (bare call or ::-qualified)
  // marks OS-boundary code.
  EXPECT_TRUE(lint_keys("src/runtime/a.cpp",
                        "void f(Socket& s) { s.poll(); }\n"
                        "void g(Supervisor* s) { s->kill(3); }\n"
                        "void h() { os::select(); }\n"
                        "struct W { int fork() const; };\n")
                  .empty());
  EXPECT_EQ(lint_keys("src/runtime/a.cpp", "void f() { poll(nullptr, 0, 0); }\n").size(), 1u);
  EXPECT_EQ(lint_keys("src/runtime/a.cpp", "#include <sys/socket.h>\n").size(), 1u);
}

TEST(LintRulesS1, StdBindIsNotASocketCall) {
  // `bind` is deliberately absent from the banned-call list (std::bind is a
  // legitimate std name); hand-rolled socket binds are caught by the
  // <sys/socket.h> include they cannot avoid.
  EXPECT_TRUE(lint_keys("src/sim/a.cpp", "auto f = std::bind(&g, 1);\n").empty());
}

TEST(LintRulesS1, SuppressionWorksLikeEveryOtherRule) {
  EXPECT_TRUE(lint_keys("src/runtime/a.cpp",
                        "int f() { return fork(); }  "
                        "// pcflow-lint: allow(S1) fixture exercises the banned call\n")
                  .empty());
}

TEST(LintRules, F1ZeroSentinelStaysClean) {
  EXPECT_TRUE(lint_keys("src/sim/a.cpp", "bool f(double x) { return x == 0.0; }\n").empty());
  EXPECT_TRUE(lint_keys("src/sim/a.cpp", "bool f(double x) { return x != 0.; }\n").empty());
  EXPECT_EQ(lint_keys("src/sim/a.cpp", "bool f(double x) { return x == 1e-9; }\n").size(), 1u);
}

TEST(LintRules, F1FloatKeywordOnlyInStatePaths) {
  EXPECT_EQ(lint_keys("src/core/a.cpp", "float x = 0;\n").size(), 1u);
  EXPECT_TRUE(lint_keys("src/sim/a.cpp", "float x = 0;\n").empty());  // D1/D2/D3 path, not F1
}

// ------------------------------------------------------------------- L1 ----

TEST(LintRulesL1, BandChecksFollowTheLayerDag) {
  // Downward or same-layer includes are clean...
  EXPECT_TRUE(lint_keys("src/core/a.cpp", "#include \"net/topology.hpp\"\n").empty());
  EXPECT_TRUE(lint_keys("src/core/a.cpp", "#include \"support/check.hpp\"\n").empty());
  EXPECT_TRUE(lint_keys("src/net/transport.cpp", "#include \"core/packet.hpp\"\n").empty());
  EXPECT_TRUE(lint_keys("src/runtime/a.cpp", "#include \"sim/engine.hpp\"\n").empty());
  EXPECT_TRUE(lint_keys("src/sim/a.cpp", "#include \"linalg/power.hpp\"\n").empty());
  // ...upward ones fire. The graph half of src/net sits BELOW core;
  // transport.* sits above it, mirroring the pcf_net / pcf_transport split.
  EXPECT_EQ(lint_keys("src/core/a.cpp", "#include \"runtime/mailbox.hpp\"\n"),
            (std::vector<std::string>{"src/core/a.cpp:1:L1"}));
  EXPECT_EQ(lint_keys("src/core/a.cpp", "#include \"sim/engine.hpp\"\n").size(), 1u);
  EXPECT_EQ(lint_keys("src/net/topology.cpp", "#include \"core/packet.hpp\"\n").size(), 1u);
  EXPECT_EQ(lint_keys("src/support/a.hpp", "#include \"core/packet.hpp\"\n").size(), 1u);
  // System headers and paths outside the layered tree are no one's business
  // (of L1's — S1 still owns the OS-header bans).
  EXPECT_TRUE(lint_keys("src/core/a.cpp", "#include <vector>\n").empty());
  EXPECT_TRUE(lint_keys("tests/foo.cpp", "#include \"runtime/mailbox.hpp\"\n").empty());
}

TEST(LintRulesL1, SuppressionWorksForBandViolations) {
  EXPECT_TRUE(lint_keys("src/core/a.cpp",
                        "// pcflow-lint: allow(L1) fixture exercises the upward include\n"
                        "#include \"sim/engine.hpp\"\n")
                  .empty());
}

TEST(LintRulesL1, IncludeCycleIsReportedOnTheBackEdge) {
  const RunResult result =
      run_files(kFixtureDir, {"src/core/cycle_a.hpp", "src/core/cycle_b.hpp"});
  EXPECT_EQ(keys(result.diagnostics),
            (std::vector<std::string>{"src/core/cycle_b.hpp:4:L1"}));
  EXPECT_NE(result.diagnostics[0].message.find(
                "src/core/cycle_a.hpp -> src/core/cycle_b.hpp -> src/core/cycle_a.hpp"),
            std::string::npos);
  // Disabling L1 silences the cycle pass along with the band checks.
  Options no_l1;
  no_l1.enabled = {Rule::kD1, Rule::kLnt};
  EXPECT_TRUE(
      run_files(kFixtureDir, {"src/core/cycle_a.hpp", "src/core/cycle_b.hpp"}, no_l1)
          .diagnostics.empty());
}

// ------------------------------------------------------------------- T1 ----

TEST(LintRulesT1, FiresOnlyNearSyncMembersAndOnlyInRuntimePaths) {
  const std::string_view src =
      "class C {\n"
      "  int before_ = 0;\n"
      "  std::mutex mutex_;\n"
      "  int counter_ = 0;\n"
      "  std::vector<double> guarded_ PCF_GUARDED_BY(mutex_);\n"
      "  std::atomic<int> hits_{0};\n"
      "  void drain();\n"
      "};\n";
  // Only counter_: before_ precedes the mutex, guarded_ is annotated, hits_
  // is atomic, drain() is a function.
  EXPECT_EQ(lint_keys("src/runtime/a.hpp", src),
            (std::vector<std::string>{"src/runtime/a.hpp:4:T1"}));
  EXPECT_EQ(lint_keys("src/support/parallel.hpp", src).size(), 1u);  // in scope
  EXPECT_TRUE(lint_keys("src/sim/a.hpp", src).empty());              // out of scope
  EXPECT_TRUE(lint_keys("src/support/other.hpp", src).empty());      // ditto
}

TEST(LintRulesT1, ConditionVariableAndPcfMutexAnchorTheWindowToo) {
  EXPECT_EQ(lint_keys("src/runtime/a.hpp",
                      "class C {\n"
                      "  std::condition_variable space_;\n"
                      "  bool full_ = false;\n"
                      "};\n")
                .size(),
            1u);
  EXPECT_EQ(lint_keys("src/runtime/a.hpp",
                      "class C {\n"
                      "  Mutex mutex_;\n"
                      "  bool stop_ = false;\n"
                      "};\n")
                .size(),
            1u);
}

TEST(LintRulesT1, WindowExpiresFarFromTheLock) {
  // Eight 5-token method declarations put the next member 41 tokens past the
  // mutex — one past the 40-token window, so it no longer needs an annotation.
  const std::string_view src =
      "class C {\n"
      "  std::mutex mutex_;\n"
      "  void a(); void b(); void c(); void d();\n"
      "  void e(); void f(); void g(); void h();\n"
      "  int far_ = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_keys("src/runtime/a.hpp", src).empty());
}

TEST(LintRulesT1, NestedTypesAndFreeCodeStayClean) {
  // The nested struct's own members are scanned (none near a lock), the
  // using-alias and static member are exempt shapes, and locals inside
  // function bodies are invisible to a class-member rule.
  EXPECT_TRUE(lint_keys("src/runtime/a.hpp",
                        "class C {\n"
                        "  std::mutex mutex_;\n"
                        "  struct Inner { int x = 0; };\n"
                        "  using Clock = int;\n"
                        "  static constexpr int kN = 3;\n"
                        "};\n"
                        "void f() { std::mutex local; int unguarded = 0; }\n")
                  .empty());
}

// ------------------------------------------------------------------ json ---

TEST(LintJson, ReportIsByteDeterministicAndVersioned) {
  const std::string a = format_report_json(run_directory(kFixtureDir));
  const std::string b = format_report_json(run_directory(kFixtureDir));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"pcflow-lint\""), std::string::npos);
  EXPECT_NE(a.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"files_scanned\": 14"), std::string::npos);
  EXPECT_NE(a.find("\"diagnostic_count\": 46"), std::string::npos);
  EXPECT_NE(a.find("\"rule\": \"L1\""), std::string::npos);
  EXPECT_NE(a.find("\"rule\": \"T1\""), std::string::npos);
  EXPECT_EQ(a.back(), '\n');
}

TEST(LintJson, CleanRunStillCarriesTheEnvelope) {
  const std::string json =
      format_report_json(run_files(kFixtureDir, {"src/core/clean.cpp"}));
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostic_count\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\": []"), std::string::npos);
}

// --------------------------------------------------------- suppression -----

TEST(LintSuppression, TrailingCommentCoversItsOwnLine) {
  EXPECT_TRUE(lint_keys("src/core/a.cpp",
                        "int f() { return std::rand(); }  "
                        "// pcflow-lint: allow(D1) fixture exercises the banned call\n")
                  .empty());
}

TEST(LintSuppression, StandaloneCommentCoversNextCodeLine) {
  EXPECT_TRUE(lint_keys("src/core/a.cpp",
                        "// pcflow-lint: allow(D1) fixture exercises the banned call\n"
                        "int f() { return std::rand(); }\n")
                  .empty());
}

TEST(LintSuppression, MultiRuleAllowCoversBothDiagnostics) {
  EXPECT_TRUE(lint_keys("src/core/a.cpp",
                        "// pcflow-lint: allow(D1,D2) both banned things, one proven-safe line\n"
                        "std::unordered_map<int, int> m; int x = std::rand();\n")
                  .empty());
}

TEST(LintSuppression, ReasonlessAllowSuppressesNothing) {
  const auto got = lint_keys("src/core/a.cpp",
                             "// pcflow-lint: allow(D1)\n"
                             "int f() { return std::rand(); }\n");
  EXPECT_EQ(got, (std::vector<std::string>{"src/core/a.cpp:1:LNT", "src/core/a.cpp:2:D1"}));
}

TEST(LintSuppression, UnusedAllowIsItselfADiagnostic) {
  const auto got = lint_keys("src/core/a.cpp",
                             "// pcflow-lint: allow(D2) nothing here iterates\n"
                             "int f() { return 1; }\n");
  EXPECT_EQ(got, (std::vector<std::string>{"src/core/a.cpp:1:LNT"}));
}

TEST(LintSuppression, LntCannotBeSuppressed) {
  const auto got = lint_keys("src/core/a.cpp",
                             "// pcflow-lint: allow(LNT) trying to silence the meta rule\n"
                             "int f() { return 1; }\n");
  EXPECT_EQ(got, (std::vector<std::string>{"src/core/a.cpp:1:LNT"}));
}

TEST(LintSuppression, ProseMentioningTheToolIsNotAnAnnotation) {
  EXPECT_TRUE(lint_keys("src/core/a.cpp",
                        "// pcflow-lint is documented in docs/TESTING.md\n"
                        "// the syntax is `pcflow-lint: allow(<rule>) <reason>`\n"
                        "int f() { return 1; }\n")
                  .empty());
}

TEST(LintSuppression, MalformedAnnotationIsReported) {
  const auto got = lint_keys("src/core/a.cpp",
                             "// pcflow-lint: disable(D1) wrong verb\n"
                             "int f() { return 1; }\n");
  EXPECT_EQ(got, (std::vector<std::string>{"src/core/a.cpp:1:LNT"}));
}

// -------------------------------------------------------------- toggles ----

TEST(LintToggles, DisabledRuleDoesNotFire) {
  Options only_d3;
  only_d3.enabled = {Rule::kD3};
  const std::string_view src =
      "std::unordered_map<int, int> m;\n"
      "std::mt19937 gen(1);\n";
  EXPECT_EQ(lint_keys("src/core/a.cpp", src, only_d3),
            (std::vector<std::string>{"src/core/a.cpp:2:D3"}));
}

TEST(LintToggles, SuppressionForDisabledRuleIsNotFlaggedUnused) {
  Options no_d2;
  no_d2.enabled = {Rule::kD1, Rule::kD3, Rule::kR1, Rule::kF1, Rule::kLnt};
  EXPECT_TRUE(lint_keys("src/core/a.cpp",
                        "// pcflow-lint: allow(D2) lookup-only cache\n"
                        "std::unordered_map<int, int> m;\n",
                        no_d2)
                  .empty());
}

TEST(LintToggles, ParseRuleRoundTripsAndRejectsUnknown) {
  for (const Rule rule : kAllRules) {
    EXPECT_EQ(parse_rule(to_string(rule)), rule);
  }
  EXPECT_EQ(parse_rule("d1"), Rule::kD1);  // case-insensitive
  EXPECT_THROW((void)parse_rule("D9"), ContractViolation);
}

// ------------------------------------------------------------------ cli ----

TEST(LintCli, ExitCodesMatchContract) {
  const std::string root_flag = std::string("--root=") + kFixtureDir;
  {
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--quiet"};
    EXPECT_EQ(run_cli(3, argv), 1);  // fixtures are full of violations
  }
  {
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--quiet",
                          "src/core/clean.cpp"};
    EXPECT_EQ(run_cli(4, argv), 0);
  }
  {
    const char* argv[] = {"pcflow-lint", "--root=/nonexistent-pcflow-lint-root"};
    EXPECT_EQ(run_cli(2, argv), 2);
  }
  {
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--rules=bogus"};
    EXPECT_EQ(run_cli(3, argv), 2);
  }
}

TEST(LintCli, RuleFilterFlagsWork) {
  const std::string root_flag = std::string("--root=") + kFixtureDir;
  {
    // Only R1: the sole finding is in bad_reducer.hpp, so linting the RNG
    // fixture is clean.
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--rules=R1", "--quiet",
                          "src/sim/bad_rng.cpp"};
    EXPECT_EQ(run_cli(5, argv), 0);
  }
  {
    // Everything but D3: same file, same result.
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--disable=D3,LNT", "--quiet",
                          "src/sim/bad_rng.cpp"};
    EXPECT_EQ(run_cli(5, argv), 0);
  }
}

TEST(LintCli, RuleSingularAliasMergesWithRules) {
  const std::string root_flag = std::string("--root=") + kFixtureDir;
  {
    // --rule=R1 alone behaves exactly like --rules=R1.
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--rule=R1", "--quiet",
                          "src/sim/bad_rng.cpp"};
    EXPECT_EQ(run_cli(5, argv), 0);
  }
  {
    // Merged with --rules: D3 joins the enabled set, so the RNG fixture fires.
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--rules=R1", "--rule=D3",
                          "--quiet", "src/sim/bad_rng.cpp"};
    EXPECT_EQ(run_cli(6, argv), 1);
  }
  {
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--rule=bogus"};
    EXPECT_EQ(run_cli(3, argv), 2);
  }
}

TEST(LintCli, ListRulesPinsTheCatalog) {
  testing::internal::CaptureStdout();
  const char* argv[] = {"pcflow-lint", "--list-rules"};
  EXPECT_EQ(run_cli(2, argv), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  // ID-first (4-wide column), catalog order, every rule present exactly once.
  EXPECT_EQ(out.find("D1   "), 0u);
  std::size_t prev = 0;
  for (const Rule rule : kAllRules) {
    const std::size_t at = out.find("\n" + std::string(to_string(rule)) + " ");
    if (rule == Rule::kD1) continue;  // D1 opens the output, no leading newline
    EXPECT_NE(at, std::string::npos) << to_string(rule);
    EXPECT_GT(at, prev) << to_string(rule);
    prev = at;
  }
  EXPECT_NE(out.find("L1   layer DAG"), std::string::npos);
  EXPECT_NE(out.find("T1   members within 40 tokens"), std::string::npos);
  EXPECT_NE(out.find("LNT  suppression hygiene"), std::string::npos);
}

TEST(LintCli, JsonFormatFlagEmitsTheSchema) {
  const std::string root_flag = std::string("--root=") + kFixtureDir;
  {
    testing::internal::CaptureStdout();
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--format=json",
                          "src/core/bad_layering.cpp"};
    EXPECT_EQ(run_cli(4, argv), 1);  // exit code contract is format-independent
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.find("{"), 0u);
    EXPECT_NE(out.find("\"schema\": \"pcflow-lint\""), std::string::npos);
    EXPECT_NE(out.find("\"rule\": \"L1\""), std::string::npos);
    EXPECT_NE(out.find("\"file\": \"src/core/bad_layering.cpp\""), std::string::npos);
  }
  {
    const char* argv[] = {"pcflow-lint", root_flag.c_str(), "--format=yaml"};
    EXPECT_EQ(run_cli(3, argv), 2);  // unknown format is a usage error
  }
}

}  // namespace
}  // namespace pcf::lint
