// Self-tests for splap-graph (graph_core.hpp): the model builder (overload
// resolution, interface fan-out, cycle termination) on inline sources, and
// the three rule families on fixture mini-trees under fixtures/graph/ —
// including the suspend-under-handler regression fixture that proves the
// analyzer catches the bug class it was built for.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph_core.hpp"

namespace splap::graph {
namespace {

namespace fs = std::filesystem;

/// Load a fixture scenario directory: every file below it becomes a
/// SourceFile whose path is relative to the scenario root (so the fixture's
/// src/... layout drives the path-scoped rules exactly like the real tree).
std::vector<SourceFile> scenario(const std::string& name) {
  const fs::path root = fs::path(SPLAP_GRAPH_FIXTURE_DIR) / name;
  std::vector<SourceFile> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    out.push_back(SourceFile{
        entry.path().lexically_relative(root).generic_string(), ss.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return out;
}

std::multiset<std::pair<std::string, std::string>> fired(
    const std::vector<Violation>& v) {
  std::multiset<std::pair<std::string, std::string>> out;
  for (const auto& x : v) out.insert({x.rule, x.file});
  return out;
}

// ---------------------------------------------------------------------------
// Model builder units (inline sources)
// ---------------------------------------------------------------------------

TEST(GraphModel, QualifiedNameResolvesToTheNamedClassOnly) {
  const std::vector<SourceFile> files = {{"src/lapi/a.cpp", R"(
namespace splap {
struct Alpha { void fire() { } };
struct Beta  { void fire() { } };
void drive(Alpha& a) { a.fire(); }
}  // namespace splap
)"}};
  const Model m = build_model(files);
  const std::vector<int> alpha = m.resolve("Alpha::fire");
  ASSERT_EQ(alpha.size(), 1u);
  EXPECT_EQ(m.fns[static_cast<std::size_t>(alpha[0])].qual,
            "splap::Alpha::fire");
  // A bare name deliberately fans out to every candidate.
  EXPECT_EQ(m.resolve("fire").size(), 2u);
}

TEST(GraphModel, ArityFilterSeparatesOverloadsAndForeignCalls) {
  const std::vector<SourceFile> files = {{"src/lapi/a.cpp", R"(
namespace splap {
struct Array {
  int get(int rank, const char* from, char* to, long len) { return rank; }
};
struct Ptr { char* get() { return nullptr; } };
void drive(Array& arr, Ptr& p, char* buf) {
  (void)p.get();
  (void)arr.get(1, buf, buf, 8);
}
}  // namespace splap
)"}};
  const Model m = build_model(files);
  // Zero-argument call: only the zero-parameter overload survives.
  const std::vector<int> zero = m.resolve("get", 0);
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(m.fns[static_cast<std::size_t>(zero[0])].qual,
            "splap::Ptr::get");
  const std::vector<int> four = m.resolve("get", 4);
  ASSERT_EQ(four.size(), 1u);
  EXPECT_EQ(m.fns[static_cast<std::size_t>(four[0])].qual,
            "splap::Array::get");
  // A count no overload accepts resolves to nothing (the call goes to code
  // outside the index, e.g. std::unique_ptr::get).
  EXPECT_TRUE(m.resolve("get", 2).empty());
  // Unknown count keeps the full fan-out.
  EXPECT_EQ(m.resolve("get", -1).size(), 2u);
}

TEST(GraphModel, DefaultArgumentsOnDeclarationsWidenTheCallableRange) {
  const std::vector<SourceFile> files = {{"src/lapi/a.cpp", R"(
namespace splap {
class Sender {
 public:
  int send(int dst, int tag = 0, int flags = 0);
};
int Sender::send(int dst, int tag, int flags) { return dst + tag + flags; }
}  // namespace splap
)"}};
  const Model m = build_model(files);
  // The out-of-class definition does not repeat the defaults; the in-class
  // declaration must make one- and two-argument calls resolve anyway.
  for (const int n : {1, 2, 3}) {
    EXPECT_EQ(m.resolve("send", n).size(), 1u) << n << " args";
  }
  EXPECT_TRUE(m.resolve("send", 0).empty());
  EXPECT_TRUE(m.resolve("send", 4).empty());
}

TEST(GraphModel, CallsThroughInterfaceFanOutToEveryImplementation) {
  const std::vector<SourceFile> files = {{"src/lapi/a.cpp", R"(
namespace splap {
struct Sink { virtual void deliver(int pkt) = 0; };
struct LapiSink : Sink { void deliver(int pkt) override { } };
struct MplSink : Sink { void deliver(int pkt) override { } };
void pump(Sink& s) { s.deliver(7); }
}  // namespace splap
)"}};
  const Model m = build_model(files);
  // The virtual call is a bare member name: resolution reaches both
  // overriders (the conservative fan-out the blocking proof relies on).
  EXPECT_EQ(m.resolve("deliver", 1).size(), 2u);
  const auto it = m.classes.find("splap::Sink");
  ASSERT_NE(it, m.classes.end());
  EXPECT_EQ(it->second.pure_virtuals, (std::set<std::string>{"deliver"}));
  ASSERT_NE(m.classes.find("splap::LapiSink"), m.classes.end());
  EXPECT_EQ(m.classes.at("splap::LapiSink").bases,
            (std::vector<std::string>{"Sink"}));
}

TEST(GraphBlocking, CallGraphCyclesTerminate) {
  // ping <-> pong recursion plus a suspension below the cycle: the fixed
  // point and the chain search must both terminate and still find the root.
  const std::vector<SourceFile> files = {
      {"src/sim/engine.hpp", R"(
namespace splap::sim {
class Actor { public: void suspend(const char* why) { (void)why; } };
class Engine {
 public:
  template <class F> void schedule_after(long d, F f) { (void)d; f(); }
};
}  // namespace splap::sim
)"},
      {"src/lapi/cycle.cpp", R"(
#include "sim/engine.hpp"
namespace splap::lapi {
void pong(sim::Actor* a, int n);
void ping(sim::Actor* a, int n) {
  if (n > 0) pong(a, n - 1);
  a->suspend("deep");
}
void pong(sim::Actor* a, int n) { ping(a, n); }
void arm(sim::Engine& eng, sim::Actor* a) {
  eng.schedule_after(1, [a] { pong(a, 3); });
}
}  // namespace splap::lapi
)"}};
  const std::vector<Violation> v = check_blocking(build_model(files));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "blocking-reachability");
  EXPECT_NE(v[0].message.find("pong"), std::string::npos);
  EXPECT_NE(v[0].message.find("Actor::suspend"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule families on the fixture mini-trees
// ---------------------------------------------------------------------------

TEST(GraphBlocking, SuspendUnderHandlerFailsWithTheFullChain) {
  const std::vector<Violation> v = analyze(scenario("suspend_under_handler"));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "blocking-reachability");
  EXPECT_EQ(v[0].file, "src/lapi/pump.cpp");
  // The diagnostic names every hop: handler entry, both helpers, and the
  // suspension primitive the path bottoms out in.
  for (const char* part :
       {"callback passed to schedule_after", "helper_send", "do_send",
        "suspension primitive Actor::compute",
        "splap-graph: allow(blocking-reachability)"}) {
    EXPECT_NE(v[0].message.find(part), std::string::npos)
        << "diagnostic lost `" << part << "`:\n" << v[0].message;
  }
}

TEST(GraphBlocking, ActorBodiesAndGuardedEdgesPass) {
  const std::vector<Violation> v = analyze(scenario("blocking_good"));
  EXPECT_TRUE(v.empty()) << v[0].file << ":" << v[0].line << " ["
                         << v[0].rule << "] " << v[0].message;
}

TEST(GraphBlocking, UnguardedRegCachePinChargeFailsUnderTheHandler) {
  // The zero-copy registration pin: charged on a cache miss inside
  // submit(), which handler context reaches via the Get-reply path. An
  // unconditional Actor::compute there is exactly the suspend-under-handler
  // bug class, surfaced statically instead of on the first cold-cache Get.
  const std::vector<Violation> v = analyze(scenario("regcache_pin_bad"));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "blocking-reachability");
  EXPECT_EQ(v[0].file, "src/lapi/regcache.cpp");
  for (const char* part :
       {"callback passed to schedule_after", "submit", "charge_pin",
        "suspension primitive Actor::compute"}) {
    EXPECT_NE(v[0].message.find(part), std::string::npos)
        << "diagnostic lost `" << part << "`:\n" << v[0].message;
  }
}

TEST(GraphBlocking, GuardedRegCachePinChargePasses) {
  const std::vector<Violation> v = analyze(scenario("regcache_pin_good"));
  EXPECT_TRUE(v.empty()) << v[0].file << ":" << v[0].line << " ["
                         << v[0].rule << "] " << v[0].message;
}

TEST(GraphLayering, TransitiveClosureCatchesIndirectLeaks) {
  const std::vector<Violation> v = analyze(scenario("layering_bad"));
  EXPECT_EQ(fired(v),
            (std::multiset<std::pair<std::string, std::string>>{
                {"layering-net", "src/net/detail.hpp"},
                {"layering-net", "src/net/fabric.hpp"},
                {"layering-context", "src/mpl/comm.hpp"},
                {"layering-context", "src/mpl/internal.hpp"}}));
  // The indirect chain is spelled out hop by hop.
  for (const auto& x : v) {
    if (x.file == "src/net/fabric.hpp") {
      EXPECT_NE(x.message.find("src/net/detail.hpp"), std::string::npos);
      EXPECT_NE(x.message.find("src/lapi/context.hpp"), std::string::npos);
    }
  }
}

TEST(GraphLayering, DownwardIncludesAreClean) {
  EXPECT_TRUE(analyze(scenario("layering_good")).empty());
}

TEST(GraphStatus, DiscardFiresOnceAndRespectsVoidAllowAndMixedOverloads) {
  const std::vector<Violation> v = analyze(scenario("status_discard"));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "status-discard");
  EXPECT_EQ(v[0].file, "src/lapi/api.cpp");
  EXPECT_NE(v[0].message.find("`op`"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Allow-annotation contract
// ---------------------------------------------------------------------------

TEST(GraphAllow, UnknownRuleAndMissingJustificationAreViolations) {
  const std::vector<SourceFile> files = {{"src/lapi/a.cpp", R"(
// splap-graph: allow(not-a-rule): whatever
// splap-graph: allow(blocking-reachability)
int x;
)"}};
  const std::vector<Violation> v = analyze(files);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rule, "bad-allow");
  EXPECT_NE(v[0].message.find("not-a-rule"), std::string::npos);
  EXPECT_EQ(v[1].rule, "bad-allow");
  EXPECT_NE(v[1].message.find("justification"), std::string::npos);
}

TEST(GraphCatalogue, ListsEveryRule) {
  std::set<std::string> ids;
  for (const auto& r : rules()) ids.insert(r.id);
  EXPECT_EQ(ids, (std::set<std::string>{
                     "blocking-reachability", "layering-net",
                     "layering-context", "status-discard", "bad-allow"}));
}

}  // namespace
}  // namespace splap::graph
