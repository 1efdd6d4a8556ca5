#include "graph_core.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

#include "lexer.hpp"

namespace splap::graph {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer: the lexer's blanked code text -> a flat token stream with
// bracket matching. Preprocessor directives (and their backslash
// continuations) are dropped entirely, so multi-line macro definitions like
// SPLAP_REQUIRE never confuse the scope parser; #include directives are
// harvested separately from the raw text.
// ---------------------------------------------------------------------------

struct Tok {
  enum Kind { kIdent, kPunct, kLit };
  Kind kind = kPunct;
  std::string text;
  int line = 0;
  int match = -1;  // partner index for ( ) [ ] { }
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<Tok> tokenize(const std::vector<lint::Line>& lines) {
  std::vector<Tok> toks;
  bool in_pp = false;  // previous line was a directive ending in '\'
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const lint::Line& ln = lines[li];
    const int lineno = static_cast<int>(li) + 1;
    const std::string& raw = ln.raw;
    if (in_pp) {
      in_pp = !raw.empty() && raw.back() == '\\';
      continue;
    }
    std::size_t first = ln.code.find_first_not_of(" \t");
    if (first != std::string::npos && ln.code[first] == '#') {
      in_pp = !raw.empty() && raw.back() == '\\';
      continue;
    }
    const std::string& s = ln.code;
    for (std::size_t i = 0; i < s.size();) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (ident_start(c)) {
        std::size_t j = i + 1;
        while (j < s.size() && ident_char(s[j])) ++j;
        toks.push_back(Tok{Tok::kIdent, s.substr(i, j - i), lineno, -1});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i + 1;
        while (j < s.size() &&
               (ident_char(s[j]) || s[j] == '.' || s[j] == '\'')) {
          ++j;
        }
        toks.push_back(Tok{Tok::kLit, s.substr(i, j - i), lineno, -1});
        i = j;
        continue;
      }
      if (c == '"' || c == '\'') {
        // The lexer blanked literal contents, leaving bare delimiter pairs.
        std::size_t j = i + 1;
        if (j < s.size() && s[j] == c) ++j;
        toks.push_back(Tok{Tok::kLit, s.substr(i, j - i), lineno, -1});
        i = j;
        continue;
      }
      const char n = i + 1 < s.size() ? s[i + 1] : '\0';
      if ((c == ':' && n == ':') || (c == '-' && n == '>')) {
        toks.push_back(Tok{Tok::kPunct, std::string{c, n}, lineno, -1});
        i += 2;
        continue;
      }
      toks.push_back(Tok{Tok::kPunct, std::string(1, c), lineno, -1});
      ++i;
    }
  }
  // Bracket matching (resilient: a stray closer is ignored).
  std::vector<int> stack;
  for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
    const std::string& t = toks[static_cast<std::size_t>(i)].text;
    if (t == "(" || t == "[" || t == "{") {
      stack.push_back(i);
    } else if (t == ")" || t == "]" || t == "}") {
      const char want = t == ")" ? '(' : t == "]" ? '[' : '{';
      while (!stack.empty()) {
        const int open = stack.back();
        stack.pop_back();
        if (toks[static_cast<std::size_t>(open)].text[0] == want) {
          toks[static_cast<std::size_t>(open)].match = i;
          toks[static_cast<std::size_t>(i)].match = open;
          break;
        }
      }
    }
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Parser: a scope-tracking forward scan that records function definitions
// (qualified by the namespace/class scopes they sit in), the call sites and
// lambda literals inside each body, class bases and virtual-method shapes.
// Deliberately approximate — see the header for the soundness argument.
// ---------------------------------------------------------------------------

const std::set<std::string>& call_keywords() {
  static const std::set<std::string> k = {
      "if",           "for",        "while",    "switch",    "return",
      "sizeof",       "alignof",    "alignas",  "decltype",  "noexcept",
      "static_cast",  "dynamic_cast", "reinterpret_cast", "const_cast",
      "catch",        "new",        "delete",   "throw",     "typeid",
      "co_await",     "co_return",  "co_yield", "requires",  "assert",
  };
  return k;
}

// Lambdas handed to these run in event/handler context (the dispatcher):
// they become blocking-reachability entry points.
const std::set<std::string>& handler_sinks() {
  static const std::set<std::string> k = {
      "schedule_at",   "schedule_after",     "schedule_at_on",
      "schedule_thunk", "schedule_thunk_on", "defer",
      "submit",        "submit_completion",  "lock_async",
      "register_handler", "set_deliver",     "set_overflow",
  };
  return k;
}

// Lambdas handed to these run as actor bodies: suspension is their whole
// point, so they are neither entries nor locally-invoked.
const std::set<std::string>& actor_sinks() {
  static const std::set<std::string> k = {
      "spawn", "spawn_on", "run_spmd", "restart_node",
  };
  return k;
}

// "Unbounded" upper arity for variadic parameter lists.
constexpr int kUnboundedArity = 1 << 20;

struct OpenCall {
  std::string callee;  // "" for a paren group that is not a call
};

class Parser {
 public:
  Parser(std::string file, const std::vector<lint::Line>& lines, Model* m)
      : file_(std::move(file)), toks_(tokenize(lines)), model_(m) {}

  void run() { parse_decls(0, toks_.size(), "", nullptr); }

 private:
  const Tok& at(std::size_t i) const { return toks_[i]; }
  bool is(std::size_t i, std::string_view t) const {
    return i < toks_.size() && toks_[i].text == t;
  }
  bool is_ident(std::size_t i) const {
    return i < toks_.size() && toks_[i].kind == Tok::kIdent;
  }
  /// Past a matched bracket group, or +1 when unmatched (resilience).
  std::size_t past_group(std::size_t i) const {
    const int m = toks_[i].match;
    return m > static_cast<int>(i) ? static_cast<std::size_t>(m) + 1 : i + 1;
  }

  /// i at '<': skip balanced angles if this plausibly opens template
  /// arguments; returns the index past '>' or `i` if it does not close.
  std::size_t skip_angles(std::size_t i, std::size_t e) const {
    int depth = 0;
    std::size_t steps = 0;
    for (std::size_t j = i; j < e && steps < 120; ++j, ++steps) {
      const std::string& t = toks_[j].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) return j + 1;
      } else if (t == ";" || t == "{" || t == "}") {
        return i;  // statement boundary: it was a comparison
      } else if (t == "(" || t == "[") {
        j = past_group(j) - 1;
      }
    }
    return i;
  }

  /// Forward to the next ';' at this nesting level (bracket groups jumped).
  std::size_t skip_to_semi(std::size_t i, std::size_t e) const {
    while (i < e) {
      const std::string& t = toks_[i].text;
      if (t == ";") return i + 1;
      if (t == "(" || t == "[" || t == "{") {
        i = past_group(i);
        continue;
      }
      if (t == "}") return i;  // enclosing scope ended first
      ++i;
    }
    return e;
  }

  /// Read an identifier chain starting at i: ident ("::" ident)* with
  /// optional '~' components. Returns (text, one-past-end); empty if none.
  std::pair<std::string, std::size_t> read_chain(std::size_t i,
                                                 std::size_t e) const {
    std::string out;
    std::size_t j = i;
    while (j < e) {
      if (is(j, "~") && is_ident(j + 1)) {
        out += "~";
        ++j;
        continue;
      }
      if (!is_ident(j)) break;
      out += toks_[j].text;
      ++j;
      if (is(j, "::") && (is_ident(j + 1) || is(j + 1, "~"))) {
        out += "::";
        ++j;
        continue;
      }
      break;
    }
    if (out.empty() || out.back() == ':') return {"", i};
    return {out, j};
  }

  std::string join_scope(const std::string& scope,
                         const std::string& name) const {
    if (scope.empty()) return name;
    return scope + "::" + name;
  }

  struct Arity {
    int params = 0;
    int min = 0;
    bool variadic = false;
  };

  /// Count a parenthesized list at `popen`: top-level commas give the
  /// count, top-level '=' marks a defaulted parameter, "..." a pack.
  /// Template arguments inside parameter types are angle-skipped so their
  /// commas do not count.
  Arity count_arity(std::size_t popen) const {
    Arity a;
    const int mi = toks_[popen].match;
    if (mi < 0) return a;
    const std::size_t close = static_cast<std::size_t>(mi);
    if (popen + 1 == close) return a;
    a.params = 1;
    int defaults = 0;
    for (std::size_t j = popen + 1; j < close;) {
      const std::string& t = at(j).text;
      if (t == "(" || t == "[" || t == "{") {
        j = past_group(j);
      } else if (t == "<") {
        const std::size_t p = skip_angles(j, close);
        j = p == j ? j + 1 : p;
      } else if (t == ",") {
        ++a.params;
        ++j;
      } else if (t == "=") {
        ++defaults;
        ++j;
      } else if (t == "." && is(j + 1, ".") && is(j + 2, ".")) {
        a.variadic = true;
        j += 3;
      } else {
        ++j;
      }
    }
    a.min = a.params - defaults - (a.variadic ? 1 : 0);
    if (a.min < 0) a.min = 0;
    return a;
  }

  void parse_decls(std::size_t b, std::size_t e, const std::string& scope,
                   ClassInfo* cls);
  std::size_t parse_declaration(std::size_t i, std::size_t e,
                                const std::string& scope, ClassInfo* cls);
  std::size_t parse_stmt_region(std::size_t b, std::size_t e, Function* fn,
                                std::vector<OpenCall>& call_stack);
  Role lambda_role(const std::vector<OpenCall>& call_stack,
                   std::string* sink) const;

  std::string file_;
  std::vector<Tok> toks_;
  Model* model_;
  int lambda_seq_ = 0;
};

void Parser::parse_decls(std::size_t b, std::size_t e,
                         const std::string& scope, ClassInfo* cls) {
  std::size_t i = b;
  while (i < e) {
    const std::string& t = at(i).text;
    if (t == ";") {
      ++i;
    } else if (t == "template") {
      i = is(i + 1, "<") ? std::max(skip_angles(i + 1, e), i + 2) : i + 1;
    } else if (t == "namespace") {
      auto [name, j] = read_chain(i + 1, e);
      if (is(j, "{")) {
        const std::size_t close = past_group(j);
        parse_decls(j + 1, close - 1,
                    name.empty() ? scope : join_scope(scope, name), nullptr);
        i = close;
      } else {
        i = skip_to_semi(j, e);  // namespace alias
      }
    } else if (t == "class" || t == "struct" || t == "union") {
      std::size_t j = i + 1;
      while (is(j, "[") && is(j + 1, "[")) j = past_group(j);  // attributes
      auto [name, k] = read_chain(j, e);
      j = k;
      if (is(j, "final")) ++j;
      if (is(j, ";")) {  // forward declaration
        i = j + 1;
        continue;
      }
      ClassInfo info;
      info.qual = name.empty() ? scope : join_scope(scope, name);
      info.file = file_;
      if (is(j, ":")) {  // base list
        ++j;
        while (j < e && !is(j, "{")) {
          const std::string& bt = at(j).text;
          if (bt == "public" || bt == "protected" || bt == "private" ||
              bt == "virtual" || bt == ",") {
            ++j;
            continue;
          }
          auto [base, nj] = read_chain(j, e);
          if (base.empty()) {
            ++j;
            continue;
          }
          info.bases.push_back(base);
          j = is(nj, "<") ? std::max(skip_angles(nj, e), nj + 1) : nj;
        }
      }
      if (!is(j, "{")) {  // something odd (e.g. variable of elaborated type)
        i = skip_to_semi(j, e);
        continue;
      }
      const std::size_t close = past_group(j);
      ClassInfo* slot = nullptr;
      if (!name.empty()) {
        slot = &model_->classes[info.qual];
        slot->qual = info.qual;
        slot->file = info.file;
        for (auto& bname : info.bases) slot->bases.push_back(bname);
      }
      parse_decls(j + 1, close - 1, info.qual, slot);
      i = skip_to_semi(close, e);  // trailing variable declarators
    } else if (t == "enum") {
      std::size_t j = i + 1;
      while (j < e && !is(j, "{") && !is(j, ";")) ++j;
      i = is(j, "{") ? skip_to_semi(past_group(j), e) : j + 1;
    } else if (t == "using" || t == "typedef" || t == "friend" ||
               t == "static_assert") {
      i = skip_to_semi(i, e);
    } else if ((t == "public" || t == "protected" || t == "private") &&
               is(i + 1, ":")) {
      i += 2;
    } else if (t == "extern" && at(i + 1).kind == Tok::kLit && is(i + 2, "{")) {
      const std::size_t close = past_group(i + 2);
      parse_decls(i + 3, close - 1, scope, cls);
      i = close;
    } else {
      i = parse_declaration(i, e, scope, cls);
    }
  }
}

std::size_t Parser::parse_declaration(std::size_t i, std::size_t e,
                                      const std::string& scope,
                                      ClassInfo* cls) {
  // Find the parameter-list '(' whose preceding identifier chain names a
  // function; bail to skip_to_semi for anything that does not fit.
  std::size_t j = i;
  std::string name;
  std::size_t name_begin = 0;
  std::size_t popen = 0;
  while (j < e) {
    const std::string& t = at(j).text;
    if (t == ";") return j + 1;
    if (t == "=") return skip_to_semi(j, e);  // variable initializer
    if (t == "{") return skip_to_semi(past_group(j), e);  // brace init/odd
    if (t == "}") return j;
    if (t == "[") {  // attribute or array declarator: jump it
      j = past_group(j);
      continue;
    }
    if (t == "operator") {
      // operator<, operator==, operator(), operator[] ...
      std::string op = "operator";
      std::size_t k = j + 1;
      if (is(k, "(") && toks_[k].match == static_cast<int>(k) + 1) {
        op += "()";
        k += 2;
      } else if (is(k, "[") && toks_[k].match == static_cast<int>(k) + 1) {
        op += "[]";
        k += 2;
      } else {
        while (k < e && at(k).kind == Tok::kPunct && !is(k, "(")) {
          op += at(k).text;
          ++k;
        }
      }
      if (is(k, "(")) {
        name = op;
        name_begin = j;
        popen = k;
        break;
      }
      j = k;
      continue;
    }
    if (t == "(") {
      // A '(' directly after an identifier chain is a parameter list (the
      // chain walked back from here is the function name); anything else —
      // decltype(...), noexcept(...), a parenthesized declarator — is
      // jumped.
      std::size_t back = j;
      std::string chain;
      while (back > i) {
        const std::size_t p = back - 1;
        if (is_ident(p) && call_keywords().count(at(p).text) == 0 &&
            at(p).text != "decltype" && at(p).text != "alignas") {
          chain.insert(0, at(p).text);
          back = p;
          if (back > i && is(back - 1, "~")) {
            chain.insert(0, "~");
            --back;
          }
          if (back > i && is(back - 1, "::")) {
            chain.insert(0, "::");
            --back;
            continue;
          }
        }
        break;
      }
      if (!chain.empty() && chain.find("::") != 0) {
        name = chain;
        name_begin = back;
        popen = j;
        break;
      }
      j = past_group(j);
      continue;
    }
    if (t == "<") {
      j = std::max(skip_angles(j, e), j + 1);
      continue;
    }
    ++j;
  }
  if (name.empty()) return skip_to_semi(j, e);

  const std::size_t pclose_i = past_group(popen) - 1;
  if (toks_[popen].match < 0) return skip_to_semi(popen, e);
  const Arity ar = count_arity(popen);

  // Declared return type: the identifier chain ending immediately before the
  // name chain (pointers/references stripped). Constructors have none.
  bool returns_status = false;
  {
    std::size_t back = name_begin;
    while (back > i && (is(back - 1, "*") || is(back - 1, "&") ||
                        is(back - 1, "&&") || is(back - 1, "const"))) {
      --back;
    }
    if (back > i && is_ident(back - 1)) {
      returns_status = at(back - 1).text == "Status";
    }
  }

  // Specifier tail after the parameter list.
  std::size_t k = pclose_i + 1;
  bool saw_override = false;
  while (k < e) {
    const std::string& t = at(k).text;
    if (t == "const" || t == "final" || t == "mutable" || t == "&" ||
        t == "&&" || t == "volatile" || t == "constexpr" || t == "inline") {
      ++k;
    } else if (t == "override") {
      saw_override = true;
      ++k;
    } else if (t == "noexcept" || t == "throw" || t == "requires") {
      ++k;
      if (is(k, "(")) k = past_group(k);
    } else if (t == "[") {
      k = past_group(k);
    } else if (t == "->") {  // trailing return type
      ++k;
      while (k < e && (is_ident(k) || is(k, "::") || is(k, "*") ||
                       is(k, "&") || is(k, "const"))) {
        if (is_ident(k) && at(k).text == "Status") returns_status = true;
        ++k;
      }
      if (is(k, "<")) k = std::max(skip_angles(k, e), k + 1);
    } else {
      break;
    }
  }

  const std::string simple =
      name.rfind("::") == std::string::npos
          ? name
          : name.substr(name.rfind("::") + 2);

  // Default arguments live on in-class declarations; merge every sighting
  // into the class's callable range so out-of-class definitions (which do
  // not repeat defaults) still resolve calls that lean on them.
  const int ar_max = ar.variadic ? kUnboundedArity : ar.params;
  const auto merge_arity = [&](ClassInfo* c) {
    if (c == nullptr) return;
    auto [it, fresh] = c->method_arity.emplace(simple,
                                               std::make_pair(ar.min, ar_max));
    if (!fresh) {
      it->second.first = std::min(it->second.first, ar.min);
      it->second.second = std::max(it->second.second, ar_max);
    }
  };

  if (is(k, ";")) {  // pure declaration
    if (cls != nullptr) {
      if (saw_override) cls->override_methods.insert(simple);
      merge_arity(cls);
    }
    return k + 1;
  }
  if (is(k, "=")) {
    if (cls != nullptr && at(k + 1).text == "0") {
      cls->pure_virtuals.insert(simple);
    } else if (cls != nullptr && saw_override) {
      cls->override_methods.insert(simple);
    }
    merge_arity(cls);
    return skip_to_semi(k, e);
  }
  if (!is(k, "{") && !is(k, ":")) return skip_to_semi(k, e);

  // Definition.
  if (cls != nullptr && saw_override) cls->override_methods.insert(simple);
  merge_arity(cls);  // in-class definitions carry their own defaults
  Function fn;
  fn.qual = join_scope(scope, name);
  fn.name = simple;
  fn.file = file_;
  fn.line = at(name_begin).line;
  fn.returns_status = returns_status;
  fn.min_params = ar.min;
  fn.max_params = ar.params;
  fn.variadic = ar.variadic;
  const int idx = static_cast<int>(model_->fns.size());
  model_->fns.push_back(std::move(fn));
  Function* self = &model_->fns[static_cast<std::size_t>(idx)];

  std::vector<OpenCall> call_stack;
  if (is(k, ":")) {
    // Constructor initializer list: scan it with the statement scanner so
    // calls and lambda arguments inside initializers are captured, stopping
    // at the body '{' (an item's own brace-init groups are jumped).
    std::size_t j2 = k + 1;
    while (j2 < e && !is(j2, "{")) {
      auto [nm, nj] = read_chain(j2, e);
      if (!nm.empty() && (is(nj, "(") || is(nj, "{"))) {
        const std::size_t close = past_group(nj);
        // Note: model_->fns may reallocate while parsing nested lambdas, so
        // re-resolve `self` after every region parse.
        parse_stmt_region(nj + 1, close - 1,
                          &model_->fns[static_cast<std::size_t>(idx)],
                          call_stack);
        j2 = close;
        if (is(j2, ",")) ++j2;
        continue;
      }
      ++j2;
    }
    k = j2;
  }
  if (!is(k, "{")) return skip_to_semi(k, e);
  const std::size_t close = past_group(k);
  call_stack.clear();
  parse_stmt_region(k + 1, close - 1,
                    &model_->fns[static_cast<std::size_t>(idx)], call_stack);
  self = &model_->fns[static_cast<std::size_t>(idx)];
  if (!self->name.empty() && self->name[0] != '<' && self->name[0] != '~') {
    model_->by_simple_name[self->name].push_back(idx);
  }
  return close;
}

Role Parser::lambda_role(const std::vector<OpenCall>& call_stack,
                         std::string* sink) const {
  for (auto it = call_stack.rbegin(); it != call_stack.rend(); ++it) {
    if (it->callee.empty()) continue;
    std::string simple = it->callee;
    if (const auto pos = simple.rfind("::"); pos != std::string::npos) {
      simple = simple.substr(pos + 2);
    }
    *sink = simple;
    if (actor_sinks().count(simple) != 0) return Role::kActorBody;
    if (handler_sinks().count(simple) != 0) return Role::kHandler;
    // Any other call the literal is handed to — push_back into a handler
    // table, a wrapper — is treated as handler context too: the
    // conservative default for a stored callback.
    return Role::kHandler;
  }
  sink->clear();
  return Role::kPlain;  // escapes via assignment/return: context unknown
}

std::size_t Parser::parse_stmt_region(std::size_t b, std::size_t e,
                                      Function* fn,
                                      std::vector<OpenCall>& call_stack) {
  const int fn_idx = static_cast<int>(fn - model_->fns.data());
  const std::size_t base_depth = call_stack.size();
  std::size_t i = b;
  std::string pending_tag;  // callee for the '(' we are about to push
  while (i < e) {
    Function& cur = model_->fns[static_cast<std::size_t>(fn_idx)];
    const std::string& t = at(i).text;
    if (t == "(") {
      call_stack.push_back(OpenCall{pending_tag});
      pending_tag.clear();
      ++i;
      continue;
    }
    if (t == ")") {
      if (call_stack.size() > base_depth) call_stack.pop_back();
      ++i;
      continue;
    }
    if (t == "[") {
      // Lambda-introducer unless this is a subscript (previous token is a
      // value) or an attribute (handled by the not-a-lambda fallthrough).
      const bool subscript =
          i > b && (is_ident(i - 1) || at(i - 1).kind == Tok::kLit ||
                    is(i - 1, ")") || is(i - 1, "]"));
      if (subscript || toks_[i].match < 0) {
        i = toks_[i].match < 0 ? i + 1 : i;  // enter group normally
        ++i;
        continue;
      }
      const std::size_t cap_close = static_cast<std::size_t>(toks_[i].match);
      // Capture initializers evaluate at creation: attribute their calls to
      // the enclosing function.
      parse_stmt_region(i + 1, cap_close, fn, call_stack);
      std::size_t j = cap_close + 1;
      if (is(j, "<")) j = std::max(skip_angles(j, e), j + 1);
      std::size_t params_open = 0;
      if (is(j, "(")) {
        params_open = j;
        j = past_group(j);
      }
      while (j < e) {
        const std::string& st = at(j).text;
        if (st == "mutable" || st == "constexpr" || st == "static") {
          ++j;
        } else if (st == "noexcept") {
          ++j;
          if (is(j, "(")) j = past_group(j);
        } else if (st == "->") {
          ++j;
          while (j < e && (is_ident(j) || is(j, "::") || is(j, "*") ||
                           is(j, "&") || is(j, "const"))) {
            ++j;
          }
          if (is(j, "<")) j = std::max(skip_angles(j, e), j + 1);
        } else {
          break;
        }
      }
      if (!is(j, "{")) {  // not a lambda after all (e.g. [[fallthrough]])
        i = cap_close + 1;
        continue;
      }
      (void)params_open;
      const std::size_t body_close = past_group(j) - 1;
      Function lam;
      lam.qual = model_->fns[static_cast<std::size_t>(fn_idx)].qual +
                 "::<lambda:" + std::to_string(at(i).line) + "." +
                 std::to_string(++lambda_seq_) + ">";
      lam.name = "<lambda:" + std::to_string(at(i).line) + ">";
      lam.file = file_;
      lam.line = at(i).line;
      lam.is_lambda = true;
      lam.role = lambda_role(call_stack, &lam.sink);
      const int lam_idx = static_cast<int>(model_->fns.size());
      model_->fns.push_back(std::move(lam));
      parse_stmt_region(j + 1, body_close,
                        &model_->fns[static_cast<std::size_t>(lam_idx)],
                        call_stack);
      i = body_close + 1;
      continue;
    }
    if (is_ident(i)) {
      auto [chain, j] = read_chain(i, e);
      if (chain.empty()) {
        ++i;
        continue;
      }
      std::size_t after = j;
      if (is(after, "<")) {
        const std::size_t past = skip_angles(after, e);
        if (past != after && is(past, "(")) after = past;
      }
      std::string last = chain;
      if (const auto pos = last.rfind("::"); pos != std::string::npos) {
        last = last.substr(pos + 2);
      }
      // `Type name(args)` is a declaration, not a call: when the chain is
      // directly preceded by an identifier (that is not a statement
      // keyword) or a template '>', the chain is the declared NAME.
      bool is_decl = false;
      if (i > b) {
        static const std::set<std::string> stmt_kw = {
            "return", "else", "do", "throw", "case", "goto",
            "new",    "delete", "co_return", "co_yield", "co_await",
        };
        if (is(i - 1, ">")) {
          is_decl = true;
        } else if (is_ident(i - 1) && stmt_kw.count(at(i - 1).text) == 0) {
          is_decl = true;
        }
      }
      if (!is_decl && is(after, "(") && call_keywords().count(last) == 0 &&
          call_keywords().count(chain) == 0) {
        CallSite site;
        site.callee = chain;
        site.line = at(i).line;
        site.member = i > b && (is(i - 1, ".") || is(i - 1, "->"));
        // Argument count for arity-filtered resolution. A pack expansion
        // (`f(args...)`) makes the real count unknowable here — leave -1.
        const Arity call_ar = count_arity(after);
        site.args = call_ar.variadic ? -1 : call_ar.params;
        // Discard analysis: the call's value is dropped when the matching
        // ')' is followed by ';' and the full postfix expression opens the
        // statement.
        const int m = toks_[after].match;
        if (m > 0 && is(static_cast<std::size_t>(m) + 1, ";")) {
          std::size_t start = i;
          while (start > b && (is(start - 1, ".") || is(start - 1, "->"))) {
            std::size_t p = start - 1;  // at the access operator
            if (p == b) break;
            const std::size_t recv = p - 1;
            if (is_ident(recv)) {
              std::size_t r = recv;
              while (r > b && is(r - 1, "::") && r >= 2 && is_ident(r - 2)) {
                r -= 2;
              }
              start = r;
            } else if ((is(recv, ")") || is(recv, "]")) &&
                       toks_[recv].match >= 0) {
              // Jump the group, then keep absorbing its own postfix head.
              std::size_t open = static_cast<std::size_t>(toks_[recv].match);
              while (open > b && (is_ident(open - 1) || is(open - 1, "::"))) {
                --open;
              }
              start = open;
            } else {
              break;
            }
          }
          bool voided = false;
          bool at_stmt_start = start == b;
          if (!at_stmt_start) {
            const std::size_t p = start - 1;
            const std::string& pt = at(p).text;
            if (pt == ";" || pt == "{" || pt == "}" || pt == "else" ||
                pt == "do") {
              at_stmt_start = true;
            } else if (pt == ")" && toks_[p].match >= 0 &&
                       static_cast<std::size_t>(toks_[p].match) + 2 == p &&
                       is(p - 1, "void")) {
              // (void)expr; — explicit discard.
              voided = true;
              const std::size_t q = static_cast<std::size_t>(toks_[p].match);
              const std::string& qt = q == b ? ";" : at(q - 1).text;
              at_stmt_start =
                  q == b || qt == ";" || qt == "{" || qt == "}";
            }
          }
          if (at_stmt_start) {
            site.discarded = true;
            site.voided = voided;
          }
        }
        model_->fns[static_cast<std::size_t>(fn_idx)].calls.push_back(site);
        (void)cur;
        pending_tag = chain;
        i = after;  // next iteration pushes the '(' with the tag
        continue;
      }
      i = j;
      continue;
    }
    if (t == "{" || t == "}" || t == "]") {
      ++i;
      continue;
    }
    ++i;
  }
  // Unwind any unbalanced opens from this region.
  while (call_stack.size() > base_depth) call_stack.pop_back();
  return e;
}

// ---------------------------------------------------------------------------
// Allow annotations and the include graph (line-oriented passes over the
// lexer output, mirroring splap-lint's annotation semantics).
// ---------------------------------------------------------------------------

constexpr const char* kBadAllow = "bad-allow";

const std::set<std::string>& known_rules() {
  static const std::set<std::string> k = {
      "blocking-reachability", "layering-net", "layering-context",
      "status-discard",
  };
  return k;
}

void collect_annotations(const std::string& file,
                         const std::vector<lint::Line>& lines, Model* m) {
  static const std::regex allow_re(
      R"(splap-graph:\s*allow\(([^)\s]*)\)\s*(:?)\s*(.*))");
  std::set<std::string> pending;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const lint::Line& ln = lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (ln.comment.find("splap-graph:") != std::string::npos) {
      std::smatch mm;
      const std::string c = ln.comment;
      if (std::regex_search(c, mm, allow_re)) {
        const std::string rule_id = mm[1];
        const bool has_colon = mm[2].length() > 0;
        const std::string just = mm[3];
        if (known_rules().count(rule_id) == 0) {
          m->annotation_errors.push_back(Violation{
              file, lineno, kBadAllow,
              "allow-annotation names unknown rule '" + rule_id + "'"});
        } else if (!has_colon || lint::blank(just)) {
          m->annotation_errors.push_back(Violation{
              file, lineno, kBadAllow,
              "allow(" + rule_id +
                  ") without a justification (write `// splap-graph: "
                  "allow(" + rule_id + "): <why this path cannot fire>`)"});
        } else if (lint::blank(ln.code)) {
          pending.insert(rule_id);
        } else {
          m->allows[file][lineno].insert(rule_id);
        }
      } else {
        m->annotation_errors.push_back(
            Violation{file, lineno, kBadAllow,
                      "malformed splap-graph annotation (expected "
                      "`splap-graph: allow(<rule>): <justification>`)"});
      }
    }
    if (!lint::blank(ln.code) && !pending.empty()) {
      auto& slot = m->allows[file][lineno];
      slot.insert(pending.begin(), pending.end());
      pending.clear();
    }
  }
}

void collect_includes(const std::string& file,
                      const std::vector<lint::Line>& lines, Model* m) {
  static const std::regex inc_re(R"(^\s*#\s*include\s*"([^"]+)\")");
  auto& edges = m->includes[file];
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Commented-out includes must not count: require the directive to be
    // code, which the lexer confirms by leaving the '#' in the code text.
    const std::string& code = lines[i].code;
    const std::size_t first = code.find_first_not_of(" \t");
    if (first == std::string::npos || code[first] != '#') continue;
    std::smatch mm;
    const std::string raw = lines[i].raw;
    if (!std::regex_search(raw, mm, inc_re)) continue;
    const std::string target = "src/" + std::string(mm[1]);
    if (m->files.count(target) != 0) {
      edges.push_back(IncludeEdge{target, static_cast<int>(i) + 1});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------------

bool Model::allowed(const std::string& file, int line,
                    std::string_view rule) const {
  const auto fit = allows.find(file);
  if (fit == allows.end()) return false;
  const auto lit = fit->second.find(line);
  if (lit == fit->second.end()) return false;
  return lit->second.count(std::string(rule)) != 0;
}

namespace {

/// The candidate's callable arity range: its definition's parameter list,
/// widened by every in-class declaration of the same method name (where the
/// default arguments live).
std::pair<int, int> callable_range(const Model& m, const Function& f) {
  int lo = f.min_params;
  int hi = f.variadic ? kUnboundedArity : f.max_params;
  const auto pos = f.qual.rfind("::");
  if (pos != std::string::npos) {
    const auto cit = m.classes.find(f.qual.substr(0, pos));
    if (cit != m.classes.end()) {
      const auto mit = cit->second.method_arity.find(f.name);
      if (mit != cit->second.method_arity.end()) {
        lo = std::min(lo, mit->second.first);
        hi = std::max(hi, mit->second.second);
      }
    }
  }
  return {lo, hi};
}

}  // namespace

std::vector<int> Model::resolve(std::string_view callee, int args) const {
  std::vector<int> out;
  if (callee.find("::") != std::string_view::npos) {
    const std::string pat(callee);
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const Function& f = fns[i];
      if (f.is_lambda) continue;
      if (f.qual == pat ||
          (f.qual.size() > pat.size() + 2 &&
           f.qual.compare(f.qual.size() - pat.size(), pat.size(), pat) == 0 &&
           f.qual.compare(f.qual.size() - pat.size() - 2, 2, "::") == 0)) {
        out.push_back(static_cast<int>(i));
      }
    }
  } else if (const auto it = by_simple_name.find(std::string(callee));
             it != by_simple_name.end()) {
    out = it->second;
  }
  if (args < 0 || out.empty()) return out;
  // Arity filter: drop candidates that cannot accept this argument count.
  // Free functions declared-with-defaults in one file and defined in another
  // are not widened (we only merge in-class declarations) — a documented
  // approximation; member arity is the case that matters for precision.
  // An empty result after filtering is the point: `ptr.get()` sharing a
  // simple name with a four-argument GlobalArray::get means the call goes
  // to something outside the index, so the edge should not exist.
  std::vector<int> kept;
  for (const int i : out) {
    const auto [lo, hi] =
        callable_range(*this, fns[static_cast<std::size_t>(i)]);
    if (args >= lo && args <= hi) kept.push_back(i);
  }
  return kept;
}

Model build_model(const std::vector<SourceFile>& files) {
  Model m;
  for (const SourceFile& f : files) m.files.insert(f.path);
  for (const SourceFile& f : files) {
    const std::vector<lint::Line> lines = lint::lex_lines(f.content);
    collect_annotations(f.path, lines, &m);
    collect_includes(f.path, lines, &m);
    Parser p(f.path, lines, &m);
    p.run();
  }
  return m;
}

// ---------------------------------------------------------------------------
// Catalogue and drivers
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> infos = {
      {"blocking-reachability",
       "no call path from a handler-context entry point may reach a "
       "suspension primitive (suspend/wait/compute/SimMutex::lock/barrier)"},
      {"layering-net",
       "src/net must not reach lapi/, mpl/ or ga/ headers through its "
       "transitive include closure"},
      {"layering-context",
       "transport layers (mpl/, lapi/{reliable,assembly,progress}) must not "
       "reach lapi/context.hpp through their transitive include closure"},
      {"status-discard",
       "call sites in src/{lapi,mpl,ga,net} must not drop a Status-returning "
       "result on the floor"},
      {kBadAllow,
       "allow-annotation must name a known rule and carry a non-empty "
       "justification"},
  };
  return infos;
}

std::vector<Violation> analyze(const std::vector<SourceFile>& files) {
  const Model m = build_model(files);
  std::vector<Violation> out = m.annotation_errors;
  for (auto&& v : check_blocking(m)) out.push_back(std::move(v));
  for (auto&& v : check_layering(m)) out.push_back(std::move(v));
  for (auto&& v : check_status_discard(m)) out.push_back(std::move(v));
  std::stable_sort(out.begin(), out.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return out;
}

std::vector<SourceFile> load_tree(const std::filesystem::path& root) {
  std::vector<std::filesystem::path> paths;
  const std::filesystem::path base = root / "src";
  if (std::filesystem::exists(base)) {
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(base)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h" ||
          ext == ".inl") {
        paths.push_back(e.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic model order
  std::vector<SourceFile> out;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    out.push_back(SourceFile{
        std::filesystem::relative(p, root).generic_string(), ss.str()});
  }
  return out;
}

}  // namespace splap::graph
