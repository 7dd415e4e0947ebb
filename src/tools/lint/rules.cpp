// Rule implementations for pcflow-lint. Each rule is a token-stream scanner:
// no preprocessor, no types — the rules reason about banned names, call
// shapes and class-body structure, which covers the bug classes that break
// bit-determinism without needing a compiler front end. Known lexical
// limitations (and the reasoning behind each rule's scope) are documented in
// docs/TESTING.md; the clang-tidy/cppcheck layer in CI backstops what a
// lexical pass cannot see.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "tools/lint/rules.hpp"

namespace pcf::lint::detail {
namespace {

using lex::Token;
using lex::TokenKind;

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] bool path_in(std::string_view path, std::initializer_list<std::string_view> dirs) {
  return std::any_of(dirs.begin(), dirs.end(),
                     [&](std::string_view d) { return starts_with(path, d); });
}

/// The files that own the OS boundary by design: the loopback UDP socket
/// wrapper and the process-per-shard socket runtime (real sockets, real
/// clocks, fork/kill/waitpid — DESIGN.md §10). Everything else in
/// src/runtime (threaded runtime, mailbox, net-trial driver) must stay free
/// of syscalls and wall-clock reads so the boundary stays auditable in two
/// files. Prefix match covers .hpp and .cpp alike.
[[nodiscard]] bool is_socket_boundary(std::string_view path) {
  return starts_with(path, "src/runtime/socket_runtime.") ||
         starts_with(path, "src/runtime/udp.");
}

/// Files allowed to spawn raw threads: support/parallel.hpp's workers live in
/// the support layer (out of scope anyway); inside src/runtime the threaded
/// runtime and the socket boundary own their threads by design.
[[nodiscard]] bool is_thread_owner(std::string_view path) {
  return starts_with(path, "src/runtime/threaded_runtime.") || is_socket_boundary(path);
}

/// Deterministic paths for D1: the engines, protocol state machines,
/// topologies and the bench/chaos harnesses whose JSON is byte-compared.
/// src/runtime is included MINUS the explicit socket-boundary exemptions —
/// the threaded runtime and the net-trial driver are scheduler-dependent but
/// must still not read clocks or the environment themselves.
[[nodiscard]] bool is_d1_path(std::string_view path) {
  if (is_socket_boundary(path)) return false;
  return path_in(path, {"src/core/", "src/sim/", "src/net/", "src/bench/", "src/runtime/"});
}

/// D2 adds the threaded runtime and linalg: their results feed the same
/// oracles, so container iteration order must not leak there either.
[[nodiscard]] bool is_d2_path(std::string_view path) {
  return is_d1_path(path) || path_in(path, {"src/runtime/", "src/linalg/"});
}

/// The one module allowed to own std::random machinery.
[[nodiscard]] bool is_rng_home(std::string_view path) {
  return path == "src/support/rng.hpp" || path == "src/support/rng.cpp";
}

/// F1 float-keyword scope: the numeric state the accuracy claims are about.
[[nodiscard]] bool is_f1_state_path(std::string_view path) {
  return path_in(path, {"src/core/", "src/linalg/"});
}

/// The oracle files compare against exact expected values by design.
[[nodiscard]] bool is_oracle_path(std::string_view path) {
  return starts_with(path, "src/sim/differential.");
}

void emit(std::vector<Diagnostic>& out, std::string_view path, const Token& tok, Rule rule,
          std::string message) {
  out.push_back({std::string(path), tok.line, tok.col, rule, std::move(message)});
}

[[nodiscard]] bool is_ident(const Token& tok, std::string_view text) noexcept {
  return tok.kind == TokenKind::kIdentifier && tok.text == text;
}

[[nodiscard]] bool is_punct(const Token& tok, std::string_view text) noexcept {
  return tok.kind == TokenKind::kPunct && tok.text == text;
}

/// True when tokens[i] is qualified as `std::name` or (global) `::name`.
[[nodiscard]] bool is_std_qualified(const std::vector<Token>& code, std::size_t i) noexcept {
  if (i < 1 || !is_punct(code[i - 1], "::")) return false;
  if (i < 2) return true;  // leading `::name`
  if (is_ident(code[i - 2], "std") || is_ident(code[i - 2], "chrono")) return true;
  return code[i - 2].kind != TokenKind::kIdentifier;  // `::name` after non-ident → global
}

// ---------------------------------------------------------------- D1 -------

/// Names that are nondeterministic however they are reached.
constexpr std::array<std::string_view, 3> kD1Always = {
    "system_clock", "steady_clock", "high_resolution_clock"};

/// C-library calls that read the environment or the wall clock. Flagged when
/// std::/::-qualified, or unqualified in call position (see below).
constexpr std::array<std::string_view, 9> kD1Calls = {
    "rand", "srand", "random", "time", "clock", "getenv", "gmtime", "localtime", "mktime"};

/// Call-position heuristic for unqualified uses of kD1Calls: `name(` counts
/// as a call unless it is a member access (`x.time()`), a qualified name in
/// another namespace, or a declaration (`double time() const`). Previous
/// tokens that indicate a declaration or member access veto the match;
/// statement/expression contexts confirm it.
[[nodiscard]] bool is_bare_call(const std::vector<Token>& code, std::size_t i) {
  if (i + 1 >= code.size() || !is_punct(code[i + 1], "(")) return false;
  if (i == 0) return true;  // file starts with the call — pathological but a call
  const Token& prev = code[i - 1];
  if (prev.kind == TokenKind::kPunct) {
    static constexpr std::array<std::string_view, 5> kVeto = {".", "->", "::", "*", "&"};
    return std::find(kVeto.begin(), kVeto.end(), prev.text) == kVeto.end();
  }
  if (prev.kind == TokenKind::kIdentifier) {
    // `return time(...)` is a call; `double time()` is a declaration.
    static constexpr std::array<std::string_view, 5> kCallKeywords = {"return", "co_return",
                                                                     "co_yield", "case", "throw"};
    return std::find(kCallKeywords.begin(), kCallKeywords.end(), prev.text) != kCallKeywords.end();
  }
  return false;
}

void rule_d1(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  if (!is_d1_path(path)) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& tok = code[i];
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (std::find(kD1Always.begin(), kD1Always.end(), tok.text) != kD1Always.end()) {
      std::ostringstream os;
      os << "wall-clock source `" << tok.text
         << "` in deterministic path (PerfCounters in support/perf.hpp is the sanctioned owner)";
      emit(out, path, tok, Rule::kD1, os.str());
      continue;
    }
    if (std::find(kD1Calls.begin(), kD1Calls.end(), tok.text) != kD1Calls.end() &&
        (is_std_qualified(code, i) || is_bare_call(code, i))) {
      std::ostringstream os;
      os << "nondeterminism source `" << tok.text
         << "` in deterministic path (seeded state must come from config, not "
            "the environment or the clock)";
      emit(out, path, tok, Rule::kD1, os.str());
    }
  }
}

// ---------------------------------------------------------------- D2 -------

constexpr std::array<std::string_view, 4> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

void rule_d2(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  if (!is_d2_path(path)) return;
  for (const Token& tok : code) {
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (std::find(kUnorderedContainers.begin(), kUnorderedContainers.end(), tok.text) !=
        kUnorderedContainers.end()) {
      std::ostringstream os;
      os << "`std::" << tok.text
         << "` in deterministic path: iteration order is implementation-defined and leaks into "
            "traces (use std::map / sorted vector, or suppress with a proof the order never "
            "escapes)";
      emit(out, path, tok, Rule::kD2, os.str());
    }
  }
}

// ---------------------------------------------------------------- D3 -------

constexpr std::array<std::string_view, 20> kStdRandomNames = {
    "mt19937",
    "mt19937_64",
    "minstd_rand",
    "minstd_rand0",
    "ranlux24",
    "ranlux48",
    "knuth_b",
    "default_random_engine",
    "random_device",
    "uniform_int_distribution",
    "uniform_real_distribution",
    "normal_distribution",
    "bernoulli_distribution",
    "binomial_distribution",
    "poisson_distribution",
    "exponential_distribution",
    "geometric_distribution",
    "discrete_distribution",
    "piecewise_constant_distribution",
    "piecewise_linear_distribution",
};

void rule_d3(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  if (is_rng_home(path)) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& tok = code[i];
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (std::find(kStdRandomNames.begin(), kStdRandomNames.end(), tok.text) !=
        kStdRandomNames.end()) {
      std::ostringstream os;
      os << "`std::" << tok.text
         << "` outside src/support/rng: std engines/distributions are implementation-defined; "
            "draw through the seeded pcf::Rng API to preserve the documented stream layout";
      emit(out, path, tok, Rule::kD3, os.str());
      continue;
    }
    // #include <random> — tokens are `#` `include` `<` `random` `>`
    if (is_ident(tok, "random") && i >= 3 && i + 1 < code.size() &&
        is_punct(code[i - 3], "#") && is_ident(code[i - 2], "include") &&
        is_punct(code[i - 1], "<") && is_punct(code[i + 1], ">")) {
      emit(out, path, tok, Rule::kD3,
           "#include <random> outside src/support/rng: all randomness flows through pcf::Rng");
    }
  }
}

// ---------------------------------------------------------------- D4 -------

/// Raw threading primitives banned from deterministic paths when
/// std::-qualified. Parallelism there must go through support/parallel.hpp:
/// its fixed contiguous work partition (resolve_thread_count +
/// parallel_for_index) is what keeps parallel output (the bench trial runner)
/// byte-identical to serial. `async` and `thread` are common enough words that only the
/// qualified spelling is flagged; the include check below catches the rest.
constexpr std::array<std::string_view, 3> kD4Primitives = {"thread", "jthread", "async"};

/// Headers whose presence in a deterministic path means hand-rolled
/// concurrency, whatever it is spelled like.
constexpr std::array<std::string_view, 2> kD4Headers = {"thread", "future"};

void rule_d4(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  if (!is_d1_path(path) || is_thread_owner(path)) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& tok = code[i];
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (std::find(kD4Primitives.begin(), kD4Primitives.end(), tok.text) != kD4Primitives.end() &&
        is_std_qualified(code, i)) {
      std::ostringstream os;
      os << "`std::" << tok.text
         << "` in deterministic path: raw threads make shard output order scheduler-dependent — "
            "use support/parallel.hpp (parallel_for_index over a fixed partition)";
      emit(out, path, tok, Rule::kD4, os.str());
      continue;
    }
    // #include <thread> / <future> — tokens are `#` `include` `<` name `>`
    if (std::find(kD4Headers.begin(), kD4Headers.end(), tok.text) != kD4Headers.end() &&
        i >= 3 && i + 1 < code.size() && is_punct(code[i - 3], "#") &&
        is_ident(code[i - 2], "include") && is_punct(code[i - 1], "<") &&
        is_punct(code[i + 1], ">")) {
      std::ostringstream os;
      os << "#include <" << tok.text
         << "> in deterministic path: concurrency there goes through support/parallel.hpp";
      emit(out, path, tok, Rule::kD4, os.str());
    }
  }
}

// ---------------------------------------------------------------- R1 -------

/// The fault-hook set every Reducer subclass must declare explicitly: the
/// interface's link events. A base-class default for either would be
/// exactly the silent inheritance that lets a new algorithm pass the
/// differential harness while ignoring failures or recoveries, which is why
/// declaration is mandatory.
constexpr std::array<std::string_view, 2> kRequiredHooks = {"on_link_down", "on_link_up"};

/// Skips a balanced `<...>` template argument list starting at `i` (which
/// must point at `<`). Returns the index one past the closing `>`. Treats
/// `>>` as two closers (C++11 rule).
[[nodiscard]] std::size_t skip_template_args(const std::vector<Token>& code, std::size_t i) {
  int depth = 0;
  while (i < code.size()) {
    const Token& tok = code[i];
    if (is_punct(tok, "<")) {
      ++depth;
    } else if (is_punct(tok, ">")) {
      if (--depth == 0) return i + 1;
    } else if (is_punct(tok, ">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (is_punct(tok, ";") || is_punct(tok, "{")) {
      return i;  // malformed; bail out without consuming the body
    }
    ++i;
  }
  return i;
}

void rule_r1(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!(is_ident(code[i], "class") || is_ident(code[i], "struct"))) continue;
    if (i > 0 && is_ident(code[i - 1], "enum")) continue;
    std::size_t j = i + 1;
    if (j >= code.size() || code[j].kind != TokenKind::kIdentifier) continue;
    const Token& name = code[j];
    ++j;
    if (j < code.size() && is_ident(code[j], "final")) ++j;
    if (j >= code.size() || !is_punct(code[j], ":")) continue;  // no base clause
    ++j;

    // Walk the base-specifier list up to `{`; find whether any base's
    // terminal identifier (before its template args, after its qualifiers)
    // is `Reducer`.
    bool derives_reducer = false;
    std::string_view last_ident;
    while (j < code.size() && !is_punct(code[j], "{") && !is_punct(code[j], ";")) {
      const Token& tok = code[j];
      if (tok.kind == TokenKind::kIdentifier) {
        last_ident = tok.text;
        ++j;
      } else if (is_punct(tok, "<")) {
        j = skip_template_args(code, j);
        last_ident = {};  // a template base's own args are not the base name
      } else if (is_punct(tok, ",")) {
        if (last_ident == "Reducer") derives_reducer = true;
        last_ident = {};
        ++j;
      } else {
        ++j;
      }
    }
    if (last_ident == "Reducer") derives_reducer = true;
    if (!derives_reducer || j >= code.size() || !is_punct(code[j], "{")) continue;

    // Collect `ident (` declarators at class-body depth 1.
    std::vector<std::string_view> declared;
    int depth = 0;
    std::size_t k = j;
    for (; k < code.size(); ++k) {
      if (is_punct(code[k], "{")) {
        ++depth;
      } else if (is_punct(code[k], "}")) {
        if (--depth == 0) break;
      } else if (depth == 1 && code[k].kind == TokenKind::kIdentifier && k + 1 < code.size() &&
                 is_punct(code[k + 1], "(")) {
        declared.push_back(code[k].text);
      }
    }

    std::vector<std::string_view> missing;
    for (const auto hook : kRequiredHooks) {
      if (std::find(declared.begin(), declared.end(), hook) == declared.end()) {
        missing.push_back(hook);
      }
    }
    if (!missing.empty()) {
      std::ostringstream os;
      os << "class `" << name.text << "` derives from Reducer but does not declare ";
      for (std::size_t m = 0; m < missing.size(); ++m) {
        os << (m ? ", " : "") << missing[m];
      }
      os << " — a silently inherited no-op fault hook would pass the differential harness "
            "while ignoring faults";
      emit(out, path, name, Rule::kR1, os.str());
    }
    i = k;  // resume after the class body
  }
}

// ---------------------------------------------------------------- F1 -------

/// True for floating-point literals (contains '.', a decimal exponent, or a
/// hex-float 'p' exponent).
[[nodiscard]] bool is_float_literal(const Token& tok) noexcept {
  if (tok.kind != TokenKind::kNumber) return false;
  const bool hex = starts_with(tok.text, "0x") || starts_with(tok.text, "0X");
  for (const char c : tok.text) {
    if (c == '.') return true;
    if (!hex && (c == 'e' || c == 'E')) return true;
    if (hex && (c == 'p' || c == 'P')) return true;
  }
  return false;
}

[[nodiscard]] bool is_zero_literal(const Token& tok) {
  const std::string text(tok.text);
  // Exact comparison against 0.0 is the sentinel idiom F1 itself sanctions.
  return std::strtod(text.c_str(), nullptr) == 0.0;
}

void rule_f1(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  if (is_f1_state_path(path)) {
    for (const Token& tok : code) {
      if (is_ident(tok, "float")) {
        emit(out, path, tok, Rule::kF1,
             "`float` in numeric-state path: the paper's accuracy claims are about double "
             "cancellation behavior — use double");
      }
    }
  }
  if (is_oracle_path(path)) return;  // oracles compare exact expected values by design
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!(is_punct(code[i], "==") || is_punct(code[i], "!="))) continue;
    for (const std::size_t side : {i - 1, i + 1}) {
      if (side >= code.size()) continue;
      const Token& operand = code[side];
      if (is_float_literal(operand) && !is_zero_literal(operand)) {
        std::ostringstream os;
        os << "`" << code[i].text << "` against floating literal " << operand.text
           << ": exact comparison is only sanctioned against the 0.0 sentinel — compare with a "
              "tolerance or restructure";
        emit(out, path, code[i], Rule::kF1, os.str());
        break;
      }
    }
  }
}

// ---------------------------------------------------------------- S1 -------

/// S1 scope: everything that must stay transport-agnostic — the algorithm,
/// engine, topology and harness layers, plus the rest of src/runtime outside
/// the two socket-boundary files.
[[nodiscard]] bool is_s1_path(std::string_view path) {
  if (is_socket_boundary(path)) return false;
  return path_in(path, {"src/core/", "src/sim/", "src/net/", "src/bench/", "src/linalg/",
                        "src/runtime/"});
}

/// POSIX socket/process calls. Flagged when ::-qualified or in bare call
/// position (member accesses like `server.poll()` stay clean — same veto
/// logic as D1's call heuristic).
constexpr std::array<std::string_view, 16> kS1Calls = {
    "socket",  "sendto",  "recvfrom", "recvmsg", "sendmsg",   "setsockopt",
    "getsockname", "poll", "select",  "fork",    "vfork",     "execve",
    "waitpid", "kill",    "sigaction", "signal"};

/// Headers whose inclusion means OS-boundary code, however the calls are
/// spelled. (std::bind makes the `bind` identifier unflaggable, so the
/// <sys/socket.h> include is what catches hand-rolled binds.)
constexpr std::array<std::string_view, 12> kS1Headers = {
    "sys/socket.h", "netinet/in.h", "netinet/tcp.h", "arpa/inet.h",
    "poll.h",       "sys/poll.h",   "sys/select.h",  "sys/epoll.h",
    "sys/wait.h",   "unistd.h",     "signal.h",      "csignal"};

/// Reassembles the header name of an `#include <...>` whose `<` is at
/// code[i]; empty when code[i] does not open an include.
[[nodiscard]] std::string include_header_at(const std::vector<Token>& code, std::size_t i) {
  if (i < 2 || !is_punct(code[i], "<") || !is_ident(code[i - 1], "include") ||
      !is_punct(code[i - 2], "#")) {
    return {};
  }
  std::string header;
  for (std::size_t j = i + 1; j < code.size() && !is_punct(code[j], ">"); ++j) {
    header += code[j].text;
  }
  return header;
}

void rule_s1(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  if (!is_s1_path(path)) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& tok = code[i];
    if (tok.kind == TokenKind::kPunct) {
      const std::string header = include_header_at(code, i);
      if (!header.empty() &&
          std::find(kS1Headers.begin(), kS1Headers.end(), header) != kS1Headers.end()) {
        std::ostringstream os;
        os << "#include <" << header
           << "> outside the socket boundary: OS transport/process code lives only in "
              "src/runtime/{udp,socket_runtime} so every other layer stays transport-agnostic";
        emit(out, path, tok, Rule::kS1, os.str());
      }
      continue;
    }
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (std::find(kS1Calls.begin(), kS1Calls.end(), tok.text) != kS1Calls.end() &&
        (is_std_qualified(code, i) || is_bare_call(code, i))) {
      std::ostringstream os;
      os << "syscall `" << tok.text
         << "` outside the socket boundary: sockets, clocks-of-the-kernel and process "
            "control belong to src/runtime/{udp,socket_runtime} only";
      emit(out, path, tok, Rule::kS1, os.str());
    }
  }
}

// ---------------------------------------------------------------- L1 -------

/// A file's place in the layer DAG. Ranks mirror the CMake target graph:
/// an include may only point at an equal or lower rank. src/net splits in
/// two because the build splits it in two: topology/tree_schedule are pure
/// graph data structures BELOW core (pcf_core links pcf_net), while
/// transport.* frames core::Packet and sits ABOVE core (pcf_transport links
/// pcf_core). Rank -1 = outside the layered tree (no band check).
struct Layer {
  std::string_view name;
  int rank = -1;
};

[[nodiscard]] Layer layer_of(std::string_view path) {
  if (starts_with(path, "src/support/")) return {"support", 0};
  if (starts_with(path, "src/net/transport.")) return {"net.transport", 3};
  if (starts_with(path, "src/net/")) return {"net.graph", 1};
  if (starts_with(path, "src/core/")) return {"core", 2};
  if (starts_with(path, "src/sim/")) return {"sim", 3};
  if (starts_with(path, "src/linalg/")) return {"linalg", 3};
  if (starts_with(path, "src/runtime/")) return {"runtime", 4};
  if (starts_with(path, "src/bench/")) return {"bench", 4};
  if (starts_with(path, "src/tools/")) return {"tools", 4};
  if (starts_with(path, "bench/")) return {"bench-harness", 5};
  if (starts_with(path, "examples/")) return {"examples", 5};
  return {};
}

/// Strips the surrounding quotes off a kString token holding an include path;
/// empty when the token is not a quoted string.
[[nodiscard]] std::string_view include_target(const Token& tok) noexcept {
  std::string_view text = tok.text;
  if (text.size() < 2 || text.front() != '"' || text.back() != '"') return {};
  return text.substr(1, text.size() - 2);
}

void rule_l1(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  const Layer from = layer_of(path);
  if (from.rank < 0) return;
  for (std::size_t i = 2; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kString || !is_ident(code[i - 1], "include") ||
        !is_punct(code[i - 2], "#")) {
      continue;
    }
    const std::string_view target = include_target(code[i]);
    if (target.empty()) continue;
    const Layer to = layer_of("src/" + std::string(target));
    if (to.rank < 0 || to.rank <= from.rank) continue;
    std::ostringstream os;
    os << "layering violation: `" << from.name << "` includes \"" << target << "\" (layer `"
       << to.name << "`); the layer DAG is support -> net.graph -> core -> "
          "{net.transport, sim, linalg} -> {runtime, bench, tools}";
    emit(out, path, code[i], Rule::kL1, os.str());
  }
}

// ---------------------------------------------------------------- T1 -------

/// T1 scope: the concurrent runtime plus the one concurrent support header.
[[nodiscard]] bool is_t1_path(std::string_view path) {
  return starts_with(path, "src/runtime/") || path == "src/support/parallel.hpp";
}

/// Member tokens that make a declaration a synchronization primitive —
/// std types plus the annotated pcf::Mutex wrapper.
constexpr std::array<std::string_view, 7> kT1SyncNames = {
    "mutex",    "shared_mutex",       "recursive_mutex",       "timed_mutex",
    "Mutex",    "condition_variable", "condition_variable_any"};

/// How far (in tokens of the original stream) past a sync member the
/// guarded-by requirement reaches. Skipped function bodies still count
/// toward the distance, so the window decays naturally inside big classes.
constexpr std::size_t kT1Window = 40;

/// Index one past the matching `}` for the `{` at `i`.
[[nodiscard]] std::size_t skip_braces(const std::vector<Token>& code, std::size_t i) {
  int depth = 0;
  for (; i < code.size(); ++i) {
    if (is_punct(code[i], "{")) ++depth;
    if (is_punct(code[i], "}") && --depth == 0) return i + 1;
  }
  return i;
}

/// One class-body member declaration, split on `;` / skipped bodies.
struct MemberChunk {
  std::vector<const Token*> tokens;  ///< brace-skipped bodies excluded
  std::size_t begin = 0;             ///< original-stream index of first token
};

[[nodiscard]] bool chunk_has_ident(const MemberChunk& chunk, std::string_view name) {
  return std::any_of(chunk.tokens.begin(), chunk.tokens.end(),
                     [&](const Token* t) { return is_ident(*t, name); });
}

[[nodiscard]] bool chunk_is_sync(const MemberChunk& chunk) {
  return std::any_of(chunk.tokens.begin(), chunk.tokens.end(), [](const Token* t) {
    return t->kind == TokenKind::kIdentifier &&
           std::find(kT1SyncNames.begin(), kT1SyncNames.end(), t->text) != kT1SyncNames.end();
  });
}

/// Chunks that cannot (or need not) carry PCF_GUARDED_BY: nested type
/// definitions, aliases, functions (anything with a parameter list), and
/// atomics — atomics are their own synchronization story.
[[nodiscard]] bool chunk_is_exempt(const MemberChunk& chunk) {
  if (chunk.tokens.empty()) return true;
  static constexpr std::array<std::string_view, 9> kDeclKeywords = {
      "struct", "class", "enum", "union", "using", "friend", "typedef", "template", "static"};
  if (chunk.tokens.front()->kind == TokenKind::kIdentifier &&
      std::find(kDeclKeywords.begin(), kDeclKeywords.end(), chunk.tokens.front()->text) !=
          kDeclKeywords.end()) {
    return true;
  }
  if (std::any_of(chunk.tokens.begin(), chunk.tokens.end(),
                  [](const Token* t) { return is_punct(*t, "("); })) {
    return true;  // function-ish (declaration, definition or ctor)
  }
  return chunk_has_ident(chunk, "atomic");
}

/// The declared name: last identifier at template depth 0 before an
/// initializer. Falls back to the first token for pathological chunks.
[[nodiscard]] const Token* chunk_name(const MemberChunk& chunk) {
  const Token* name = chunk.tokens.front();
  int angle_depth = 0;
  for (const Token* t : chunk.tokens) {
    if (is_punct(*t, "<")) ++angle_depth;
    if (is_punct(*t, ">")) --angle_depth;
    if (is_punct(*t, ">>")) angle_depth -= 2;
    if (is_punct(*t, "=") || is_punct(*t, "{")) break;
    if (angle_depth <= 0 && t->kind == TokenKind::kIdentifier) name = t;
  }
  return name;
}

/// Scans one class body (code[open] == `{`); returns the index one past the
/// closing `}`. Recurses into nested class/struct/union definitions.
std::size_t t1_scan_class_body(std::string_view path, const std::vector<Token>& code,
                               std::size_t open, std::vector<Diagnostic>& out) {
  // No sync member seen yet: npos disarms the window.
  std::size_t anchor = std::string_view::npos;
  MemberChunk chunk;
  const auto flush = [&](std::size_t end_index) {
    // Leading access specifiers belong to the section, not the member.
    while (chunk.tokens.size() >= 2 &&
           (is_ident(*chunk.tokens[0], "public") || is_ident(*chunk.tokens[0], "private") ||
            is_ident(*chunk.tokens[0], "protected")) &&
           is_punct(*chunk.tokens[1], ":")) {
      chunk.tokens.erase(chunk.tokens.begin(), chunk.tokens.begin() + 2);
      if (!chunk.tokens.empty()) chunk.begin += 2;
    }
    if (chunk.tokens.empty()) return;
    if (chunk_is_sync(chunk)) {
      anchor = end_index;
    } else if (anchor != std::string_view::npos && chunk.begin - anchor <= kT1Window &&
               !chunk_is_exempt(chunk) && !chunk_has_ident(chunk, "PCF_GUARDED_BY") &&
               !chunk_has_ident(chunk, "PCF_PT_GUARDED_BY")) {
      const Token* name = chunk_name(chunk);
      std::ostringstream os;
      os << "member `" << name->text << "` sits within " << kT1Window
         << " tokens of a mutex/condition_variable member but carries no PCF_GUARDED_BY — "
            "annotate which lock guards it (support/annotations.hpp) or move it out of the "
            "lock cluster";
      emit(out, path, *name, Rule::kT1, os.str());
    }
  };

  std::size_t i = open + 1;
  while (i < code.size() && !is_punct(code[i], "}")) {
    const Token& tok = code[i];
    if (is_punct(tok, ";")) {
      flush(i);
      chunk = {};
      ++i;
      continue;
    }
    if (is_punct(tok, "{")) {
      const bool nested_type =
          !chunk.tokens.empty() && chunk.tokens.front()->kind == TokenKind::kIdentifier &&
          (chunk.tokens.front()->text == "struct" || chunk.tokens.front()->text == "class" ||
           chunk.tokens.front()->text == "union");
      if (nested_type) {
        i = t1_scan_class_body(path, code, i, out);
      } else {
        i = skip_braces(code, i);  // function body or brace initializer
      }
      continue;  // the chunk keeps accumulating until `;` (or ends unterminated)
    }
    if (chunk.tokens.empty()) chunk.begin = i;
    chunk.tokens.push_back(&tok);
    ++i;
  }
  flush(i);
  return i < code.size() ? i + 1 : i;
}

void rule_t1(std::string_view path, const std::vector<Token>& code,
             std::vector<Diagnostic>& out) {
  if (!is_t1_path(path)) return;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (is_ident(code[i], "template") && is_punct(code[i + 1], "<")) {
      i = skip_template_args(code, i + 1) - 1;  // `class T` here is not a definition
      continue;
    }
    if (!(is_ident(code[i], "class") || is_ident(code[i], "struct")) ||
        (i > 0 && is_ident(code[i - 1], "enum"))) {
      continue;
    }
    if (code[i + 1].kind != TokenKind::kIdentifier) continue;
    // Walk to the body `{`, skipping base clauses; bail on `;` (forward
    // declaration) or `(` (elaborated type in a declarator).
    std::size_t j = i + 2;
    bool found_body = false;
    while (j < code.size()) {
      if (is_punct(code[j], "{")) {
        found_body = true;
        break;
      }
      if (is_punct(code[j], ";") || is_punct(code[j], "(")) break;
      if (is_punct(code[j], "<")) {
        j = skip_template_args(code, j);
        continue;
      }
      ++j;
    }
    if (!found_body) continue;
    i = t1_scan_class_body(path, code, j, out) - 1;
  }
}

}  // namespace

void run_rules(std::string_view path, const std::vector<Token>& code, const Options& options,
               std::vector<Diagnostic>& out) {
  if (options.rule_enabled(Rule::kD1)) rule_d1(path, code, out);
  if (options.rule_enabled(Rule::kD2)) rule_d2(path, code, out);
  if (options.rule_enabled(Rule::kD3)) rule_d3(path, code, out);
  if (options.rule_enabled(Rule::kD4)) rule_d4(path, code, out);
  if (options.rule_enabled(Rule::kR1)) rule_r1(path, code, out);
  if (options.rule_enabled(Rule::kF1)) rule_f1(path, code, out);
  if (options.rule_enabled(Rule::kS1)) rule_s1(path, code, out);
  if (options.rule_enabled(Rule::kL1)) rule_l1(path, code, out);
  if (options.rule_enabled(Rule::kT1)) rule_t1(path, code, out);
}

std::vector<IncludeRef> collect_includes(const std::vector<Token>& tokens) {
  std::vector<IncludeRef> out;
  std::vector<const Token*> code;
  code.reserve(tokens.size());
  for (const Token& tok : tokens) {
    if (tok.kind != TokenKind::kComment) code.push_back(&tok);
  }
  for (std::size_t i = 2; i < code.size(); ++i) {
    if (code[i]->kind != TokenKind::kString || !is_ident(*code[i - 1], "include") ||
        !is_punct(*code[i - 2], "#")) {
      continue;
    }
    const std::string_view target = include_target(*code[i]);
    if (!target.empty()) {
      out.push_back({std::string(target), code[i]->line, code[i]->col});
    }
  }
  return out;
}

void check_include_cycles(
    const std::vector<std::pair<std::string, std::vector<IncludeRef>>>& files,
    std::vector<Diagnostic>& out) {
  std::vector<std::size_t> order(files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return files[a].first < files[b].first; });

  std::map<std::string_view, std::size_t> index;
  for (const std::size_t i : order) index.emplace(files[i].first, i);
  const auto resolve = [&](std::string_view from, const std::string& target) {
    const std::size_t slash = from.rfind('/');
    const std::string sibling =
        slash == std::string_view::npos ? target : std::string(from.substr(0, slash + 1)) + target;
    for (const std::string& candidate : {"src/" + target, sibling, target}) {
      const auto it = index.find(candidate);
      if (it != index.end()) return it->second;
    }
    return files.size();  // not part of the scanned set (system/external)
  };

  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(files.size(), Color::kWhite);
  std::vector<std::size_t> stack;
  const auto dfs = [&](auto&& self, std::size_t u) -> void {
    color[u] = Color::kGray;
    stack.push_back(u);
    for (const IncludeRef& inc : files[u].second) {
      const std::size_t v = resolve(files[u].first, inc.target);
      if (v >= files.size()) continue;
      if (color[v] == Color::kGray) {
        std::ostringstream os;
        os << "include cycle: ";
        for (auto it = std::find(stack.begin(), stack.end(), v); it != stack.end(); ++it) {
          os << files[*it].first << " -> ";
        }
        os << files[v].first << " (the layer DAG must stay acyclic)";
        out.push_back({files[u].first, inc.line, inc.col, Rule::kL1, os.str()});
      } else if (color[v] == Color::kWhite) {
        self(self, v);
      }
    }
    stack.pop_back();
    color[u] = Color::kBlack;
  };
  for (const std::size_t i : order) {
    if (color[i] == Color::kWhite) dfs(dfs, i);
  }
}

}  // namespace pcf::lint::detail
