// Self-test for splap-lint: every rule must both FIRE on its bad fixture
// and STAY QUIET on the matching good fixture, and the allow-annotation
// contract (justified = muted, unjustified/unknown = bad-allow) must hold.
// Fixture files live under SPLAP_LINT_FIXTURE_DIR (set by CMake); the
// path-scoped rules are exercised by scanning fixture CONTENT under pretend
// repo-relative paths.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint_core.hpp"

namespace splap::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(SPLAP_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Rules that fired, with their line numbers.
std::multiset<std::pair<std::string, int>> fired(
    const std::vector<Violation>& vs) {
  std::multiset<std::pair<std::string, int>> out;
  for (const auto& v : vs) out.insert({v.rule, v.line});
  return out;
}

std::multiset<std::string> fired_rules(const std::vector<Violation>& vs) {
  std::multiset<std::string> out;
  for (const auto& v : vs) out.insert(v.rule);
  return out;
}

std::multiset<std::string> n_of(int n, const char* rule) {
  std::multiset<std::string> out;
  for (int i = 0; i < n; ++i) out.insert(rule);
  return out;
}

TEST(LintRules, WallClockFiresOnEachBadLine) {
  const auto v = scan_source("src/sim/x.cc", fixture("bad_wall_clock.cc"));
  EXPECT_EQ(fired(v), (std::multiset<std::pair<std::string, int>>{
                          {"wall-clock", 4},
                          {"wall-clock", 5},
                          {"wall-clock", 6},
                          {"wall-clock", 7},
                          {"wall-clock", 8},
                          {"wall-clock", 9},
                          {"wall-clock", 10}}));
}

TEST(LintRules, WallClockQuietOnLookalikes) {
  const auto v = scan_source("src/sim/x.cc", fixture("good_wall_clock.cc"));
  EXPECT_TRUE(v.empty()) << v.front().line << ": " << v.front().message;
}

TEST(LintRules, RawRngFiresOnEachBadLine) {
  const auto v = scan_source("tests/x.cc", fixture("bad_raw_rng.cc"));
  EXPECT_EQ(fired_rules(v), n_of(10, "raw-rng"));
}

TEST(LintRules, RawRngQuietOnLookalikes) {
  const auto v = scan_source("tests/x.cc", fixture("good_raw_rng.cc"));
  EXPECT_TRUE(v.empty()) << v.front().line << ": " << v.front().message;
}

TEST(LintRules, BannedIncludeFiresOnEachBadLine) {
  const auto v = scan_source("src/base/x.cc", fixture("bad_banned_include.cc"));
  EXPECT_EQ(fired(v), (std::multiset<std::pair<std::string, int>>{
                          {"banned-include", 4},
                          {"banned-include", 5},
                          {"banned-include", 6},
                          {"banned-include", 7},
                          {"banned-include", 8}}));
}

TEST(LintRules, BannedIncludeQuietOnLookalikes) {
  const auto v = scan_source("src/base/x.cc", fixture("good_banned_include.cc"));
  EXPECT_TRUE(v.empty()) << v.front().line << ": " << v.front().message;
}

TEST(LintRules, UnorderedContainerFiresInTraceDirs) {
  const std::string content = fixture("bad_unordered.cc");
  for (const char* dir : {"src/sim/x.cc", "src/net/x.cc", "src/lapi/x.cc",
                          "src/mpl/x.cc"}) {
    const auto v = scan_source(dir, content);
    // Two includes + three members.
    EXPECT_EQ(fired_rules(v), n_of(5, "unordered-container"))
        << "under " << dir;
  }
}

TEST(LintRules, UnorderedContainerQuietOutsideTraceDirs) {
  const std::string content = fixture("good_unordered.cc");
  for (const char* dir : {"src/base/x.cc", "src/ga/x.cc", "tests/x.cc"}) {
    EXPECT_TRUE(scan_source(dir, content).empty()) << "under " << dir;
  }
  // And the bad fixture itself is legal outside the trace dirs.
  EXPECT_TRUE(scan_source("src/base/x.cc", fixture("bad_unordered.cc")).empty());
}

TEST(LintRules, PointerKeyFiresOnEachBadLine) {
  const auto v = scan_source("src/mpl/x.cc", fixture("bad_pointer_key.cc"));
  EXPECT_EQ(fired(v), (std::multiset<std::pair<std::string, int>>{
                          {"pointer-key", 8},
                          {"pointer-key", 9},
                          {"pointer-key", 10},
                          {"pointer-key", 11},
                          {"pointer-key", 12}}));
}

TEST(LintRules, PointerKeyQuietOnPointerValues) {
  const auto v = scan_source("src/mpl/x.cc", fixture("good_pointer_key.cc"));
  EXPECT_TRUE(v.empty()) << v.front().line << ": " << v.front().message;
}

TEST(LintRules, OsSyncFiresOnEachBadLine) {
  const auto v = scan_source("src/lapi/x.cc", fixture("bad_os_sync.cc"));
  EXPECT_EQ(fired(v), (std::multiset<std::pair<std::string, int>>{
                          {"os-sync", 5},
                          {"os-sync", 6},
                          {"os-sync", 7},
                          {"os-sync", 8},
                          {"os-sync", 9},
                          {"os-sync", 10},
                          {"os-sync", 11}}));
}

TEST(LintRules, OsSyncQuietOnVirtualCodeAndBelowProtocolLayers) {
  EXPECT_TRUE(
      scan_source("src/lapi/x.cc", fixture("good_os_sync.cc")).empty());
  // The engine owns no thread, but the sweep driver runs whole machines on
  // OS threads that share process-wide state below the protocol layers: the
  // same primitives are legal under src/sim and src/base.
  EXPECT_TRUE(
      scan_source("src/sim/x.cc", fixture("bad_os_sync.cc")).empty());
  EXPECT_TRUE(
      scan_source("src/base/x.cc", fixture("bad_os_sync.cc")).empty());
}

// The layering-net / layering-context rules moved to splap-graph
// (graph_selftest.cpp), which checks them over the transitive include
// closure instead of raw #include lines.

TEST(LintAllow, JustifiedAllowMutesTheRule) {
  const auto v = scan_source("src/sim/x.cc", fixture("allow_ok.cc"));
  EXPECT_TRUE(v.empty()) << v.front().line << ": [" << v.front().rule << "] "
                         << v.front().message;
}

TEST(LintAllow, MissingJustificationIsAViolationAndMutesNothing) {
  const auto v = scan_source("src/sim/x.cc",
                             fixture("allow_missing_justification.cc"));
  // Line 3: bad-allow + the un-muted unordered-container.
  // Line 5: bad-allow (empty justification after the colon).
  // Line 6: the un-muted wall-clock.
  EXPECT_EQ(fired(v), (std::multiset<std::pair<std::string, int>>{
                          {"bad-allow", 3},
                          {"unordered-container", 3},
                          {"bad-allow", 5},
                          {"wall-clock", 6}}));
}

TEST(LintAllow, UnknownRuleIsAViolationAndMutesNothing) {
  const auto v = scan_source("src/sim/x.cc", fixture("allow_unknown_rule.cc"));
  EXPECT_EQ(fired(v), (std::multiset<std::pair<std::string, int>>{
                          {"bad-allow", 3},
                          {"wall-clock", 3}}));
}

TEST(LintLexer, CommentsStringsAndRawStringsAreNotCode) {
  const char* src =
      "const char* a = \"rand()\";\n"
      "// rand() in a line comment\n"
      "/* std::mt19937 in a block\n"
      "   comment spanning lines */\n"
      "const char* b = R\"(std::random_device)\";\n"
      "char c = '\\'';  int ok = 1;\n";
  EXPECT_TRUE(scan_source("src/sim/x.cc", src).empty());
}

TEST(LintLexer, CodeAfterBlockCommentStillScanned) {
  const char* src = "/* c */ int x = rand();\n";
  const auto v = scan_source("tests/x.cc", src);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "raw-rng");
  EXPECT_EQ(v[0].line, 1);
}

TEST(LintCatalogue, ListsEveryRule) {
  std::set<std::string> ids;
  for (const auto& r : rules()) ids.insert(r.id);
  EXPECT_EQ(ids, (std::set<std::string>{"wall-clock", "raw-rng",
                                        "banned-include",
                                        "unordered-container", "pointer-key",
                                        "os-sync", "bad-allow"}));
}

}  // namespace
}  // namespace splap::lint
