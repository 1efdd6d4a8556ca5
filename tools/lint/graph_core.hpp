// splap-graph: call-graph / include-graph static analysis for the splap tree.
//
// splap-lint (lint_core.hpp) proves per-line facts: a banned token cannot
// appear on a simulated path. This tool proves per-PATH facts that no regex
// can see:
//
//   blocking-reachability  no call chain from a handler-context entry point
//                          (event callback, SvcPool completion job,
//                          progress-pump lambda, or a Sender/Env/Sink
//                          callback-interface implementation) may reach a
//                          suspension primitive. This turns the engine's
//                          runtime REQUIRE ("blocking is forbidden in
//                          handler/event context") into a compile-time proof
//                          with the full call chain as the diagnostic.
//   layering-net           src/net must not reach lapi/, mpl/ or ga/ headers
//   layering-context       transport layers (mpl/, lapi/{reliable,assembly,
//                          progress}) must not reach lapi/context.hpp —
//                          both computed over the TRANSITIVE include closure,
//                          so a leak through an intermediate header is caught
//                          (the per-line rules these replace only saw direct
//                          includes).
//   status-discard         a call site in src/{lapi,mpl,ga,net} that drops a
//                          Status-returning result on the floor.
//
// Like splap-lint it is deliberately zero-dependency: a token-level symbol
// table over the comment/string-stripped source (lexer.hpp), not libclang.
// The model is a conservative over-approximation — an unqualified call
// resolves to EVERY function with that simple name, and virtual calls fan
// out to every override — so "no path exists" is a real proof, at the cost
// of occasional false paths. The escape hatch mirrors splap-lint:
//
//   // splap-graph: allow(<rule-id>): <why this path cannot fire>
//
// on the offending line (for blocking-reachability: the call edge to cut;
// for layering: the include line; for status-discard: the call site). An
// annotation without a justification, or naming an unknown rule, is itself
// a violation.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint_core.hpp"

namespace splap::graph {

using lint::RuleInfo;
using lint::Violation;

/// One translation unit handed to the model builder. `path` is repo-relative
/// with '/' separators (e.g. "src/lapi/context.cpp") — the include resolver
/// and the path-scoped rules key off it.
struct SourceFile {
  std::string path;
  std::string content;
};

/// A call site inside a function body (or constructor initializer list).
struct CallSite {
  std::string callee;     // as written, '::'-joined, no template args
  int line = 0;           // 1-based
  int args = -1;          // top-level argument count (-1: unknown)
  bool member = false;    // written as obj.f(...) or p->f(...)
  bool discarded = false; // full-expression statement, result unused
  bool voided = false;    // explicitly cast to void
};

/// How a function body gets control — decides entry-point status for
/// blocking-reachability.
enum class Role {
  kPlain,      // ordinary function, or a lambda that escapes through a
               // variable/field (unknown invocation context)
  kHandler,    // lambda passed to an event/handler-context sink
               // (schedule_*, defer, submit, set_deliver, ...)
  kActorBody,  // lambda passed to spawn/spawn_on/run_spmd/restart_node —
               // runs as an actor body, may suspend freely
};

struct Function {
  std::string qual;  // fully qualified: namespaces + classes + name
  std::string name;  // last component; lambdas get "<lambda:LINE>"
  std::string file;
  int line = 0;
  bool is_lambda = false;
  bool returns_status = false;  // declared return type spelled ...Status
  Role role = Role::kPlain;
  std::string sink;  // lambdas: simple name of the call they were passed to
  // Arity of the definition's parameter list: [min_params, max_params]
  // callable range (defaults shrink min; a pack makes max unbounded).
  int min_params = 0;
  int max_params = 0;
  bool variadic = false;
  std::vector<CallSite> calls;
};

struct ClassInfo {
  std::string qual;
  std::string file;
  std::vector<std::string> bases;          // base-class names as written
  std::set<std::string> pure_virtuals;     // simple names of `= 0` methods
  std::set<std::string> override_methods;  // simple names of `override` decls
  // Callable arity range per method name, merged over all in-class
  // declarations (which is where default arguments live — out-of-class
  // definitions do not repeat them).
  std::map<std::string, std::pair<int, int>> method_arity;
};

struct IncludeEdge {
  std::string target;  // resolved repo-relative path (only in-tree targets)
  int line = 0;
};

struct Model {
  std::vector<Function> fns;
  std::map<std::string, std::vector<int>, std::less<>> by_simple_name;
  std::map<std::string, ClassInfo> classes;  // keyed by qualified name
  std::map<std::string, std::vector<IncludeEdge>> includes;  // per file
  std::set<std::string> files;  // every path handed to the builder
  // (file, line) -> rule ids muted there by splap-graph annotations.
  std::map<std::string, std::map<int, std::set<std::string>>> allows;
  std::vector<Violation> annotation_errors;  // bad-allow findings

  bool allowed(const std::string& file, int line,
               std::string_view rule) const;

  /// Resolve a callee as written to candidate definition indices.
  /// Qualified names suffix-match at a '::' boundary; bare names match every
  /// function with that simple name (the deliberate over-approximation that
  /// makes virtual calls through Sender/Env/Sink fan out to all overrides).
  /// With `args >= 0`, candidates whose callable arity range (definition
  /// merged with in-class declarations) cannot accept that many arguments
  /// are dropped — this is what keeps `ptr.get()` from resolving to a
  /// four-parameter GlobalArray::get.
  std::vector<int> resolve(std::string_view callee, int args = -1) const;
};

/// Build the symbol table + call graph + include graph.
Model build_model(const std::vector<SourceFile>& files);

/// The three rule families. Each returns violations sorted by (file, line).
std::vector<Violation> check_blocking(const Model& m);
std::vector<Violation> check_layering(const Model& m);
std::vector<Violation> check_status_discard(const Model& m);

/// Rule catalogue (stable ids; DESIGN.md §7 documents each).
const std::vector<RuleInfo>& rules();

/// Run everything over a set of sources (annotation errors included).
std::vector<Violation> analyze(const std::vector<SourceFile>& files);

/// Load every C++ source under root/src (repo-relative paths).
std::vector<SourceFile> load_tree(const std::filesystem::path& root);

}  // namespace splap::graph
