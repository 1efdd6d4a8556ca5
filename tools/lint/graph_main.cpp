// splap_graph CLI: call-graph / include-graph contract proofs over src/
// (see graph_core.hpp for the rule rationale). Exit 0 = clean, 1 =
// violations, 2 = usage error.
//
//   splap_graph --root <repo-root>   # analyze everything under src/
//   splap_graph --list-rules
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "graph_core.hpp"

int main(int argc, char** argv) {
  std::filesystem::path root = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const auto& r : splap::graph::rules()) {
        std::printf("%-24s %s\n", r.id, r.summary);
      }
      return 0;
    } else {
      std::fprintf(stderr, "splap_graph: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  std::error_code ec;
  root = std::filesystem::canonical(root, ec);
  if (ec) {
    std::fprintf(stderr, "splap_graph: bad --root: %s\n",
                 ec.message().c_str());
    return 2;
  }

  const auto sources = splap::graph::load_tree(root);
  if (sources.empty()) {
    std::fprintf(stderr, "splap_graph: no sources under %s/src\n",
                 root.string().c_str());
    return 2;
  }
  const splap::graph::Model model = splap::graph::build_model(sources);
  auto violations = splap::graph::analyze(model);
  for (auto& v : splap::graph::check_proof_roots(model)) {
    violations.push_back(std::move(v));
  }
  for (const auto& v : violations) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "splap-graph: %zu violation%s\n", violations.size(),
                 violations.size() == 1 ? "" : "s");
    return 1;
  }
  std::printf("splap-graph: clean (%zu files)\n", sources.size());
  return 0;
}
