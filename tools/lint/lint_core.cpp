#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "lexer.hpp"

namespace splap::lint {
namespace {

// ---------------------------------------------------------------------------
// Rules (the lexical pass lives in lexer.hpp, shared with splap-graph)
// ---------------------------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool in_trace_dirs(std::string_view rel) {
  return starts_with(rel, "src/sim/") || starts_with(rel, "src/net/") ||
         starts_with(rel, "src/lapi/") || starts_with(rel, "src/mpl/");
}

struct Rule {
  const char* id;
  const char* summary;
  const char* message;
  std::regex pattern;
  bool (*in_scope)(std::string_view rel);
  /// Match against the verbatim line instead of the blanked code text
  /// (needed for `#include "..."` rules: the quoted path is a string
  /// literal, which the lexical pass blanks). Comment-only lines are still
  /// skipped, so commented-out includes never fire.
  bool raw = false;
};

bool scope_all(std::string_view) { return true; }

const std::vector<Rule>& rule_table() {
  static const std::vector<Rule> rules = [] {
    std::vector<Rule> r;
    const auto f = std::regex::ECMAScript | std::regex::optimize;
    r.push_back(Rule{
        "wall-clock",
        "no wall-clock time sources; all time is virtual (base/time.hpp)",
        "wall-clock time source on a simulated path (virtual time only; "
        "see base/time.hpp)",
        std::regex(R"(std::chrono|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b|\bgettimeofday\b|\bclock_gettime\b|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)|\bclock\s*\(\s*\))",
                   f),
        &scope_all});
    r.push_back(Rule{
        "raw-rng",
        "all randomness must flow through base/rng.hpp seeding discipline",
        "randomness source bypassing base/rng.hpp (unseedable or "
        "wall-clock-seeded; breaks same-seed reproduction)",
        std::regex(R"(\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b|\bminstd_rand0?\b|\branlux(?:24|48)(?:_base)?\b|\bdefault_random_engine\b|\bknuth_b\b|\buniform_(?:int|real)_distribution\b|\bbernoulli_distribution\b|\bnormal_distribution\b)",
                   f),
        &scope_all});
    r.push_back(Rule{
        "banned-include",
        "headers that exist only to provide banned constructs",
        "banned include: this header's facilities are nondeterministic on "
        "simulated paths (<random>/<chrono>/<ctime>) or are the threads, "
        "locks and atomics that os-sync bans",
        std::regex(R"(^\s*#\s*include\s*<(?:random|chrono|ctime|time\.h|sys/time\.h|mutex|shared_mutex|thread|condition_variable|atomic|pthread\.h)>)",
                   f),
        &scope_all});
    r.push_back(Rule{
        "unordered-container",
        "no unordered_{map,set} on trace-affecting paths "
        "(src/sim, src/net, src/lapi)",
        "hash container on a trace-affecting path: iteration order is "
        "implementation- and address-dependent; use an ordered container "
        "with a value key, or annotate why it is never iterated",
        std::regex(R"(\bunordered_(?:map|set|multimap|multiset)\b)", f),
        &in_trace_dirs});
    r.push_back(Rule{
        "pointer-key",
        "no pointer-valued keys in ordered containers",
        "pointer-valued key in an ordered container: comparison order "
        "follows the allocator/ASLR, not the program; key by a stable id "
        "instead",
        std::regex(R"(std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[A-Za-z_][A-Za-z0-9_:<>\s]*?\*\s*[,>])",
                   f),
        &scope_all});
    r.push_back(Rule{
        "os-sync",
        "no OS threads/locks/atomics anywhere (one OS thread per process; "
        "concurrency is virtual)",
        "OS concurrency primitive: a process runs on one OS thread, every "
        "actor is a fiber on it, and actors and events synchronize in "
        "virtual time (one event loop orders cross-node effects "
        "deterministically); a second thread, a lock or an atomic would "
        "hide nondeterminism from the trace gate",
        std::regex(R"(\bstd::(?:recursive_|timed_|shared_)?mutex\b|\bstd::condition_variable(?:_any)?\b|\bstd::(?:jthread|thread)\b|\bstd::atomic\b|\bstd::atomic_\w+|\bthread_local\b|\bpthread_\w+)",
                   f),
        &scope_all});
    // Layering is no longer enforced here: the raw-line `layering-net` and
    // `layering-context` rules moved to splap-graph, whose include-closure
    // pass also catches indirect leaks through intermediate headers.
    return r;
  }();
  return rules;
}

// The annotation rule is not in the table: it fires from the annotation
// parser, not from a pattern.
constexpr const char* kBadAllow = "bad-allow";

struct Annotation {
  std::set<std::string> allowed;  // rules muted on the target line
};

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> infos = [] {
    std::vector<RuleInfo> v;
    for (const Rule& r : rule_table()) v.push_back(RuleInfo{r.id, r.summary});
    v.push_back(RuleInfo{kBadAllow,
                         "allow-annotation must name a known rule and carry "
                         "a non-empty justification"});
    return v;
  }();
  return infos;
}

std::vector<Violation> scan_source(std::string_view repo_rel,
                                   std::string_view contents) {
  std::vector<Violation> out;
  const std::vector<Line> lines = lex_lines(contents);
  const std::string file(repo_rel);

  // Pass 1: collect allow-annotations. An annotation on a comment-only line
  // applies to the next line with code (chaining through further comment
  // lines); a trailing annotation applies to its own line.
  std::vector<Annotation> per_line(lines.size() + 1);
  static const std::regex allow_re(
      R"(splap-lint:\s*allow\(([^)\s]*)\)\s*(:?)\s*(.*))");
  std::set<std::string> known;
  for (const Rule& r : rule_table()) known.insert(r.id);
  Annotation pending;  // from comment-only lines, waiting for code
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Line& ln = lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (ln.comment.find("splap-lint:") != std::string::npos) {
      std::smatch m;
      std::string c = ln.comment;
      if (std::regex_search(c, m, allow_re)) {
        const std::string rule_id = m[1];
        const bool has_colon = m[2].length() > 0;
        const std::string just = m[3];
        if (known.count(rule_id) == 0) {
          out.push_back(Violation{
              file, lineno, kBadAllow,
              "allow-annotation names unknown rule '" + rule_id + "'"});
        } else if (!has_colon || blank(just)) {
          out.push_back(Violation{
              file, lineno, kBadAllow,
              "allow(" + rule_id +
                  ") without a justification (write `// splap-lint: "
                  "allow(" + rule_id + "): <why this is trace-neutral>`)"});
        } else if (blank(ln.code)) {
          pending.allowed.insert(rule_id);
        } else {
          per_line[i].allowed.insert(rule_id);
        }
      } else {
        out.push_back(Violation{file, lineno, kBadAllow,
                               "malformed splap-lint annotation (expected "
                               "`splap-lint: allow(<rule>): <justification>`)"});
      }
    }
    if (!blank(ln.code) && !pending.allowed.empty()) {
      per_line[i].allowed.insert(pending.allowed.begin(),
                                 pending.allowed.end());
      pending.allowed.clear();
    }
  }

  // Pass 2: pattern rules over the code text.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Line& ln = lines[i];
    if (blank(ln.code)) continue;
    const int lineno = static_cast<int>(i) + 1;
    for (const Rule& r : rule_table()) {
      if (!r.in_scope(repo_rel)) continue;
      if (!std::regex_search(r.raw ? ln.raw : ln.code, r.pattern)) continue;
      if (per_line[i].allowed.count(r.id) != 0) continue;
      out.push_back(Violation{file, lineno, r.id, r.message});
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Violation& a, const Violation& b) {
                     return a.line < b.line;
                   });
  return out;
}

std::vector<Violation> scan_file(const std::filesystem::path& root,
                                 const std::filesystem::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    return {Violation{file.string(), 0, "io-error", "cannot read file"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string rel =
      std::filesystem::relative(file, root).generic_string();
  return scan_source(rel, ss.str());
}

std::vector<Violation> scan_tree(const std::filesystem::path& root) {
  std::vector<Violation> out;
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"src", "tests"}) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::exists(base)) continue;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(base)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h" ||
          ext == ".inl") {
        files.push_back(e.path());
      }
    }
  }
  std::sort(files.begin(), files.end());  // deterministic report order
  for (const auto& f : files) {
    std::vector<Violation> v = scan_file(root, f);
    out.insert(out.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }
  return out;
}

}  // namespace splap::lint
