// blocking-reachability: prove that no handler-context entry point can reach
// a suspension primitive, turning the engine's runtime REQUIRE ("blocking is
// forbidden in handler/event context") into a compile-time property with the
// full call chain as the diagnostic.
//
// Entry points (collected outside src/sim — the engine itself is the trusted
// base that IMPLEMENTS suspension and the grant/suspend fiber switch):
//   - lambdas passed to handler-context sinks (schedule_*, defer, submit,
//     submit_completion, lock_async, register_handler,
//     set_deliver/set_overflow, or any other stored-callback registration)
//   - implementations of the narrow callback interfaces the transport uses
//     to call upward: ProgressEngine::Sink, ReliableChannel::Sender,
//     AssemblyEngine::Env
//   - the demux/pump entry points the progress engine drives directly
//
// Suspension roots: Actor::suspend, Actor::wait, Actor::compute,
// SimMutex::lock. The may-suspend bit propagates backward through the call
// graph to a fixed point; an allow-annotated line cuts both the root match
// and every call edge on it (the annotation for the dual-mode
// `if (Actor::current())` pattern).
#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph_core.hpp"

namespace splap::graph {
namespace {

constexpr const char* kRule = "blocking-reachability";

const std::vector<std::string>& suspend_roots() {
  static const std::vector<std::string> r = {
      "Actor::suspend",
      "Actor::wait",
      "Actor::compute",
      "SimMutex::lock",
  };
  return r;
}

const std::vector<std::string>& entry_interfaces() {
  static const std::vector<std::string> r = {
      "ProgressEngine::Sink",
      "ReliableChannel::Sender",
      "AssemblyEngine::Env",
  };
  return r;
}

const std::vector<std::string>& explicit_entries() {
  static const std::vector<std::string> r = {
      "ProgressEngine::pump",
      "AssemblyEngine::process",
      "AssemblyEngine::on_overflow",
      "SendEngine::on_ack",
      "SendEngine::on_nack",
      "SendEngine::on_credit",
      "SendEngine::on_rmw_resp",
      "SendEngine::on_probe",
  };
  return r;
}

std::vector<std::string> split_qual(std::string_view q) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= q.size()) {
    const std::size_t next = q.find("::", pos);
    if (next == std::string_view::npos) {
      out.emplace_back(q.substr(pos));
      break;
    }
    out.emplace_back(q.substr(pos, next - pos));
    pos = next + 2;
  }
  return out;
}

/// `qual` ends with the component sequence of `pattern` at a '::' boundary.
bool qual_suffix(std::string_view qual, std::string_view pattern) {
  const std::vector<std::string> a = split_qual(qual);
  const std::vector<std::string> b = split_qual(pattern);
  if (b.size() > a.size()) return false;
  return std::equal(b.rbegin(), b.rend(), a.rbegin());
}

/// A written callee matches a root when their overlapping component
/// sequences agree: bare `compute` matches `Actor::compute`; qualified
/// `Other::compute` does not.
bool callee_matches_root(std::string_view callee, std::string_view root) {
  const std::vector<std::string> a = split_qual(callee);
  const std::vector<std::string> b = split_qual(root);
  const std::size_t n = std::min(a.size(), b.size());
  return n > 0 && std::equal(a.rbegin(), a.rbegin() + static_cast<long>(n),
                             b.rbegin());
}

bool in_sim(const Function& f) { return f.file.rfind("src/sim/", 0) == 0; }

struct Graph {
  std::vector<char> is_root_call_fn;  // unused slot kept for clarity
  std::vector<char> may_suspend;
  // Per function: calls that terminal-match a root (index into fn.calls),
  // and resolved outgoing edges (call index -> target fns).
  std::vector<std::vector<int>> root_calls;
  std::vector<std::vector<std::pair<int, std::vector<int>>>> edges;
};

bool call_is_root(const Model& m, const CallSite& c, std::string* which) {
  // Textual matching is reserved for qualified spellings (`a->wait(...)` on
  // an Actor*, spelled `Actor::wait`, is a template the index never holds a
  // definition for). Bare names go through resolution, where the arity
  // filter separates `mu_.lock()` from `std::lock_guard` noise.
  if (c.callee.find("::") != std::string::npos) {
    for (const std::string& r : suspend_roots()) {
      if (callee_matches_root(c.callee, r)) {
        *which = r;
        return true;
      }
    }
  }
  for (const int t : m.resolve(c.callee, c.args)) {
    const Function& f = m.fns[static_cast<std::size_t>(t)];
    for (const std::string& r : suspend_roots()) {
      if (qual_suffix(f.qual, r)) {
        *which = r;
        return true;
      }
    }
  }
  return false;
}

Graph build_graph(const Model& m) {
  Graph g;
  const std::size_t n = m.fns.size();
  g.may_suspend.assign(n, 0);
  g.root_calls.resize(n);
  g.edges.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Function& f = m.fns[i];
    // Engine internals are the trusted base: their bodies IMPLEMENT
    // suspension (grant/park handoff, audit mutexes — OS-level waits below
    // the virtual-time abstraction), and every suspension API the engine
    // exports to the layers above is already in suspend_roots(). Treat them
    // as opaque leaves so callers are judged by the roots they hit, not by
    // how the engine implements them.
    if (in_sim(f)) continue;
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& site = f.calls[c];
      if (m.allowed(f.file, site.line, kRule)) continue;
      std::string which;
      if (call_is_root(m, site, &which)) {
        g.root_calls[i].push_back(static_cast<int>(c));
        g.may_suspend[i] = 1;
        continue;
      }
      std::vector<int> targets = m.resolve(site.callee, site.args);
      if (!targets.empty()) {
        g.edges[i].emplace_back(static_cast<int>(c), std::move(targets));
      }
    }
  }
  // Fixed point: may_suspend flows backward over call edges.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (g.may_suspend[i] != 0) continue;
      for (const auto& [c, targets] : g.edges[i]) {
        for (const int t : targets) {
          if (g.may_suspend[static_cast<std::size_t>(t)] != 0) {
            g.may_suspend[i] = 1;
            changed = true;
            break;
          }
        }
        if (g.may_suspend[i] != 0) break;
      }
    }
  }
  return g;
}

std::vector<int> collect_entries(const Model& m) {
  std::set<int> entries;
  for (std::size_t i = 0; i < m.fns.size(); ++i) {
    const Function& f = m.fns[i];
    if (in_sim(f)) continue;
    if (f.is_lambda && f.role == Role::kHandler) {
      entries.insert(static_cast<int>(i));
    }
    if (!f.is_lambda) {
      for (const std::string& q : explicit_entries()) {
        if (qual_suffix(f.qual, q)) entries.insert(static_cast<int>(i));
      }
    }
  }
  // Callback-interface implementations: for each class whose base list names
  // one of the entry interfaces, the interface's pure-virtual methods (as
  // implemented by that class) are entry points.
  for (const auto& [qual, cls] : m.classes) {
    for (const std::string& base : cls.bases) {
      for (const std::string& iface : entry_interfaces()) {
        if (!qual_suffix(base, iface) && !qual_suffix(iface, base)) continue;
        // The interface's own ClassInfo carries the pure-virtual set.
        const ClassInfo* idecl = nullptr;
        for (const auto& [q2, c2] : m.classes) {
          if (qual_suffix(q2, iface)) idecl = &c2;
        }
        if (idecl == nullptr) continue;
        for (const std::string& method : idecl->pure_virtuals) {
          const std::string want = qual + "::" + method;
          for (std::size_t i = 0; i < m.fns.size(); ++i) {
            if (!m.fns[i].is_lambda && m.fns[i].qual == want &&
                !in_sim(m.fns[i])) {
              entries.insert(static_cast<int>(i));
            }
          }
        }
      }
    }
  }
  return {entries.begin(), entries.end()};
}

std::string entry_label(const Function& f) {
  if (!f.is_lambda) return f.qual;
  if (f.sink.empty()) return f.qual;
  return f.qual + " (callback passed to " + f.sink + ")";
}

/// Shortest offending chain from `entry`, or "" when none reachable.
std::string find_chain(const Model& m, const Graph& g, int entry) {
  struct Step {
    int fn;
    int parent = -1;      // index into the BFS order
    int via_call = -1;    // call index in parent's fn
  };
  std::vector<Step> order;
  std::map<int, int> seen;  // fn -> index in order
  std::deque<int> queue;
  order.push_back(Step{entry, -1, -1});
  seen[entry] = 0;
  queue.push_back(0);
  while (!queue.empty()) {
    const int oi = queue.front();
    queue.pop_front();
    const int fi = order[static_cast<std::size_t>(oi)].fn;
    const Function& f = m.fns[static_cast<std::size_t>(fi)];
    if (!g.root_calls[static_cast<std::size_t>(fi)].empty()) {
      // Terminal: reconstruct entry -> ... -> root call.
      const int rc = g.root_calls[static_cast<std::size_t>(fi)].front();
      const CallSite& root_site = f.calls[static_cast<std::size_t>(rc)];
      std::string which;
      call_is_root(m, root_site, &which);
      std::vector<std::string> hops;
      hops.push_back("  " + f.file + ":" + std::to_string(root_site.line) +
                     "  " + f.qual + " calls `" + root_site.callee +
                     "` -> suspension primitive " + which);
      int cur = oi;
      while (order[static_cast<std::size_t>(cur)].parent >= 0) {
        const Step& s = order[static_cast<std::size_t>(cur)];
        const int pfn = order[static_cast<std::size_t>(s.parent)].fn;
        const Function& pf = m.fns[static_cast<std::size_t>(pfn)];
        const CallSite& site =
            pf.calls[static_cast<std::size_t>(s.via_call)];
        hops.push_back("  " + pf.file + ":" + std::to_string(site.line) +
                       "  " + pf.qual + " calls `" + site.callee + "`");
        cur = s.parent;
      }
      std::ostringstream os;
      os << "handler-context path reaches a suspension primitive:\n";
      os << "  entry: " << entry_label(m.fns[static_cast<std::size_t>(entry)])
         << "\n";
      for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
        os << *it << "\n";
      }
      os << "  annotate the guarded edge with `// splap-graph: "
            "allow(blocking-reachability): <why>` if this path cannot fire";
      return os.str();
    }
    for (const auto& [c, targets] : g.edges[static_cast<std::size_t>(fi)]) {
      for (const int t : targets) {
        if (g.may_suspend[static_cast<std::size_t>(t)] == 0) continue;
        if (seen.count(t) != 0) continue;
        seen[t] = static_cast<int>(order.size());
        order.push_back(Step{t, oi, c});
        queue.push_back(seen[t]);
      }
    }
  }
  return "";
}

}  // namespace

std::vector<Violation> check_proof_roots(const Model& m) {
  std::vector<Violation> out;
  auto stale = [&](const std::string& root, const char* kind) {
    out.push_back(Violation{
        "tools/lint/rule_blocking.cpp", 0, kRule,
        "stale proof root: " + std::string(kind) + " `" + root +
            "` matches nothing under src/, so the paths it enters are no "
            "longer proven; rename it here along with the code"});
  };
  for (const std::string& q : explicit_entries()) {
    const bool found = std::any_of(m.fns.begin(), m.fns.end(), [&](auto& f) {
      return !f.is_lambda && !in_sim(f) && qual_suffix(f.qual, q);
    });
    if (!found) stale(q, "explicit entry");
  }
  for (const std::string& iface : entry_interfaces()) {
    const bool found =
        std::any_of(m.classes.begin(), m.classes.end(), [&](auto& c) {
          return qual_suffix(c.first, iface) && !c.second.pure_virtuals.empty();
        });
    if (!found) stale(iface, "entry interface");
  }
  return out;
}

std::vector<Violation> check_blocking(const Model& m) {
  std::vector<Violation> out;
  const Graph g = build_graph(m);
  std::vector<int> entries = collect_entries(m);
  std::sort(entries.begin(), entries.end(), [&](int a, int b) {
    const Function& fa = m.fns[static_cast<std::size_t>(a)];
    const Function& fb = m.fns[static_cast<std::size_t>(b)];
    if (fa.file != fb.file) return fa.file < fb.file;
    if (fa.line != fb.line) return fa.line < fb.line;
    return fa.qual < fb.qual;
  });
  for (const int e : entries) {
    const Function& f = m.fns[static_cast<std::size_t>(e)];
    if (g.may_suspend[static_cast<std::size_t>(e)] == 0) continue;
    if (m.allowed(f.file, f.line, kRule)) continue;
    const std::string chain = find_chain(m, g, e);
    if (chain.empty()) continue;  // taint came only through allowed edges
    out.push_back(Violation{f.file, f.line, kRule, chain});
  }
  return out;
}

}  // namespace splap::graph
