#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <utility>

#include "support/error.hpp"
#include "support/json.hpp"

namespace manet::lint {

namespace {

Pattern component(std::string text) { return Pattern{std::move(text), MatchKind::kComponent, false}; }
Pattern component_call(std::string text) {
  return Pattern{std::move(text), MatchKind::kComponent, true};
}
Pattern exact(std::string text) { return Pattern{std::move(text), MatchKind::kExact, false}; }
Pattern prefix(std::string text) { return Pattern{std::move(text), MatchKind::kPrefix, false}; }

std::vector<Rule> build_rules() {
  std::vector<Rule> table;

  table.push_back(Rule{
      "locale-parse",
      "locale-sensitive number parsing is confined to src/support/numeric.hpp "
      "(use manet::parse_double)",
      {"src", "bench", "tests"},
      {"src/support/numeric.hpp"},
      {component_call("stod"), component_call("stof"), component_call("stold"),
       component_call("strtod"), component_call("strtof"), component_call("strtold"),
       component_call("atof"), component_call("sscanf"), component_call("vsscanf"),
       component_call("scanf"), component_call("fscanf")},
  });

  table.push_back(Rule{
      "locale-format",
      "locale-sensitive floating-point formatting is confined to "
      "src/support/numeric.hpp (use format_double_roundtrip / format_fixed)",
      {"src", "bench", "tests"},
      {"src/support/numeric.hpp"},
      {component_call("setprecision"), exact("std::fixed"), exact("std::scientific"),
       exact("std::hexfloat"), exact("std::defaultfloat")},
  });

  table.push_back(Rule{
      "nondet-random",
      "nondeterministic or hidden-state randomness is confined to "
      "src/support/rng.hpp (seeded substreams only); std::*_distribution is "
      "banned everywhere because its draw sequence is implementation-defined "
      "— fading and deviate draws go through support/rng substreams",
      {"src", "bench", "tests"},
      {"src/support/rng.hpp", "src/support/rng.cpp"},
      {component("random_device"), component_call("rand"), component_call("srand"),
       component_call("rand_r"), component_call("drand48"), component_call("lrand48"),
       component_call("mrand48"), component_call("random"),
       component_call("random_shuffle"),
       // The <random> distribution adaptors: which engine draws they make is
       // implementation-defined, so the same seed yields different graphs on
       // different standard libraries. Rng::normal()/uniform() are the
       // sanctioned deterministic equivalents — not even rng.{hpp,cpp} may
       // use these (the allowlist exempts the files, but keeping the
       // patterns exhaustive documents the ban).
       component("uniform_int_distribution"), component("uniform_real_distribution"),
       component("bernoulli_distribution"), component("binomial_distribution"),
       component("negative_binomial_distribution"), component("geometric_distribution"),
       component("poisson_distribution"), component("exponential_distribution"),
       component("gamma_distribution"), component("weibull_distribution"),
       component("extreme_value_distribution"), component("normal_distribution"),
       component("lognormal_distribution"), component("chi_squared_distribution"),
       component("cauchy_distribution"), component("fisher_f_distribution"),
       component("student_t_distribution"), component("discrete_distribution"),
       component("piecewise_constant_distribution"),
       component("piecewise_linear_distribution")},
  });

  table.push_back(Rule{
      "nondet-time",
      "wall-clock reads are confined to the metrics layer and policy-granted "
      "files (results must never depend on when they were computed)",
      {"src", "bench"},
      {"src/support/metrics.hpp", "src/support/metrics.cpp"},
      {component("chrono"), component("steady_clock"), component("system_clock"),
       component("high_resolution_clock"), component_call("time"), component_call("clock"),
       component_call("gettimeofday"), component_call("clock_gettime"),
       component_call("timespec_get"), component_call("localtime"), component_call("gmtime"),
       component_call("strftime")},
  });

  table.push_back(Rule{
      "nondet-ordering",
      "hash-ordered containers are banned in src/ (iteration order is "
      "implementation-defined and must never feed a result or serialization "
      "path; use std::map / std::set / sorted vectors)",
      {"src"},
      {},
      {component("unordered_map"), component("unordered_set"),
       component("unordered_multimap"), component("unordered_multiset")},
  });

  table.push_back(Rule{
      "thread-confinement",
      "threading primitives are confined to src/support/parallel.* and "
      "src/support/metrics.* (all parallelism flows through the deterministic "
      "engine)",
      {"src"},
      {"src/support/parallel.hpp", "src/support/parallel.cpp", "src/support/metrics.hpp",
       "src/support/metrics.cpp"},
      {component("thread"), component("jthread"), component("mutex"),
       component("recursive_mutex"), component("shared_mutex"), component("timed_mutex"),
       component("condition_variable"), component("condition_variable_any"),
       component("atomic"), component("atomic_flag"), component("atomic_ref"),
       component("future"), component("promise"), component("async"), component("barrier"),
       component("latch"), component("semaphore"), component("counting_semaphore"),
       component("binary_semaphore")},
  });

  table.push_back(Rule{
      "simd-confinement",
      "SIMD intrinsics, vector-pragma hints and CPU-feature probes are "
      "confined to src/geometry/distance_kernels.hpp (every vector lane must "
      "go through the batched kernels, whose bit-identity to the scalar path "
      "is proven once, there)",
      {"src", "bench", "tests"},
      {"src/geometry/distance_kernels.hpp"},
      {component("immintrin"), component("x86intrin"), component("emmintrin"),
       component("xmmintrin"), component("smmintrin"), component("tmmintrin"),
       component("nmmintrin"), component("pmmintrin"), component("avxintrin"),
       component("avx2intrin"), component("avx512fintrin"), component("arm_neon"),
       component("arm_sve"), component("ivdep"), component("omp"),
       prefix("_mm"), prefix("__m128"), prefix("__m256"), prefix("__m512"),
       component_call("__builtin_cpu_supports"), component_call("__builtin_cpu_init")},
  });

  table.push_back(Rule{
      "process-control",
      "process termination is confined to the campaign kill-hook seam "
      "(src/campaign/campaign.cpp); libraries report failure via exceptions",
      {"src", "bench", "tools"},
      {"src/campaign/campaign.cpp"},
      {component_call("exit"), component_call("_exit"), component_call("_Exit"),
       component_call("quick_exit"), component_call("abort"), component_call("terminate")},
  });

  table.push_back(Rule{
      "socket-confinement",
      "socket and process-spawn syscalls are confined to src/service/socket.cpp "
      "(the manetd transport); everything else speaks through the Socket / "
      "UnixListener wrappers so I/O never leaks into simulation or campaign "
      "code",
      {"src", "bench", "tests", "tools"},
      {"src/service/socket.cpp"},
      {component_call("socket"), component_call("bind"), component_call("listen"),
       component_call("accept"), component_call("accept4"), component_call("connect"),
       component_call("recv"), component_call("recvfrom"), component_call("recvmsg"),
       component_call("send"), component_call("sendto"), component_call("sendmsg"),
       component_call("setsockopt"), component_call("getsockopt"),
       component_call("socketpair"), component_call("fork"), component_call("vfork"),
       component_call("execve"), component_call("execl"), component_call("execlp"),
       component_call("execv"), component_call("execvp"), component_call("posix_spawn"),
       component_call("popen"), component_call("system")},
  });

  table.push_back(Rule{
      "env-confinement",
      "environment reads and writes are confined to src/support/parallel.cpp "
      "(the MANET_THREADS read, which never changes a result); a new "
      "environment switch needs a visible waiver",
      {"src", "bench", "tools"},
      {"src/support/parallel.cpp"},
      {component_call("getenv"), component_call("secure_getenv"), component_call("setenv"),
       component_call("putenv"), component_call("unsetenv")},
  });

  return table;
}

/// The meta-rule id used for malformed suppression comments. Not in the rule
/// table on purpose: a broken escape hatch must not itself be escapable.
constexpr const char* kSuppressionRule = "lint-suppression";

// --------------------------------------------------------------------------
// Lexer: tokens + suppression comments.
// --------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdentifier, kColonColon, kPunct };
  Kind kind;
  std::string_view text;
  std::size_t line;
};

struct Suppression {
  std::size_t line = 0;    ///< line the comment ends on
  bool whole_line = false; ///< nothing but whitespace before the comment
  std::vector<std::string> rule_ids;
  bool has_reason = false;
  bool well_formed = false;  ///< "allow( ... )" parsed structurally
};

bool is_identifier_start(char c) {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}
bool is_identifier_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Parses the body of a comment for the suppression marker. Returns false
/// when the comment does not mention manet-lint at all.
bool parse_suppression_comment(std::string_view body, Suppression& out) {
  const std::size_t marker = body.find("manet-lint:");
  if (marker == std::string_view::npos) return false;
  std::size_t i = marker + std::string_view("manet-lint:").size();
  const auto skip_spaces = [&] {
    while (i < body.size() && (body[i] == ' ' || body[i] == '\t')) ++i;
  };
  skip_spaces();
  if (body.compare(i, 5, "allow") != 0) return true;  // marker present, malformed
  i += 5;
  skip_spaces();
  if (i >= body.size() || body[i] != '(') return true;
  ++i;
  const std::size_t close = body.find(')', i);
  if (close == std::string_view::npos) return true;

  // Rule list: ids separated by commas and/or spaces.
  std::string current;
  const auto flush = [&] {
    if (!current.empty()) out.rule_ids.push_back(std::exchange(current, {}));
  };
  for (std::size_t j = i; j < close; ++j) {
    const char c = body[j];
    if (c == ',' || c == ' ' || c == '\t') {
      flush();
    } else {
      current.push_back(c);
    }
  }
  flush();
  out.well_formed = !out.rule_ids.empty();
  i = close + 1;

  // Mandatory reason: whatever follows the ')', minus separator dashes. The
  // canonical spelling is "— <reason>" but plain "-", "--" and ":" work.
  while (i < body.size()) {
    const unsigned char c = static_cast<unsigned char>(body[i]);
    if (c == ' ' || c == '\t' || c == '-' || c == ':') {
      ++i;
    } else if (c == 0xE2 && i + 2 < body.size()) {
      ++i; ++i; ++i;  // UTF-8 em/en dash (U+2013/U+2014)
    } else {
      break;
    }
  }
  while (i < body.size()) {
    if (body[i] != ' ' && body[i] != '\t' && body[i] != '\r' && body[i] != '\n') {
      out.has_reason = true;
      break;
    }
    ++i;
  }
  return true;
}

/// Comment/string/char-literal-aware lexer. Produces the identifier/punct
/// token stream plus every manet-lint suppression comment.
void lex(std::string_view text, std::vector<Token>& tokens,
         std::vector<Suppression>& suppressions) {
  std::size_t i = 0;
  std::size_t line = 1;
  bool line_has_code = false;  // any token before the current position on this line

  const auto record_comment = [&](std::string_view body, std::size_t end_line,
                                  bool whole_line) {
    Suppression s;
    s.line = end_line;
    s.whole_line = whole_line;
    if (parse_suppression_comment(body, s)) suppressions.push_back(std::move(s));
  };

  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      const std::size_t start = i;
      while (i < text.size() && text[i] != '\n') ++i;
      record_comment(text.substr(start, i - start), line, !line_has_code);
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      const std::size_t start = i;
      const bool whole_line = !line_has_code;
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      const std::size_t end = std::min(i, text.size());
      i = std::min(i + 2, text.size());
      record_comment(text.substr(start, end - start), line, whole_line);
      continue;
    }
    if (c == '"') {  // ordinary string literal (raw strings handled below)
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
        if (text[i] == '\n') ++line;  // ill-formed, but keep line counts sane
        ++i;
      }
      ++i;
      line_has_code = true;
      continue;
    }
    if (c == '\'') {  // char literal ('' as digit separator is consumed by numbers)
      ++i;
      while (i < text.size() && text[i] != '\'') {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
        ++i;
      }
      ++i;
      line_has_code = true;
      continue;
    }
    if (is_digit(c) || (c == '.' && i + 1 < text.size() && is_digit(text[i + 1]))) {
      // pp-number: digits, identifier chars, '.', digit separators, exponent
      // signs. Consuming it as one blob keeps 1'000'000 from looking like a
      // char literal and 1e5f from producing a stray identifier.
      ++i;
      while (i < text.size()) {
        const char d = text[i];
        if (is_identifier_char(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') && (text[i - 1] == 'e' || text[i - 1] == 'E' ||
                                              text[i - 1] == 'p' || text[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      line_has_code = true;
      continue;
    }
    if (is_identifier_start(c)) {
      const std::size_t start = i;
      while (i < text.size() && is_identifier_char(text[i])) ++i;
      const std::string_view word = text.substr(start, i - start);
      // Raw string literal: R"delim( ... )delim" (and u8R/uR/LR variants).
      if ((word == "R" || word == "u8R" || word == "uR" || word == "LR") &&
          i < text.size() && text[i] == '"') {
        ++i;
        const std::size_t delim_start = i;
        while (i < text.size() && text[i] != '(') ++i;
        std::string closer;
        closer.push_back(')');
        closer.append(text.substr(delim_start, i - delim_start));
        closer.push_back('"');
        const std::size_t body_start = i;
        const std::size_t end = text.find(closer, body_start);
        const std::size_t stop = end == std::string_view::npos ? text.size() : end + closer.size();
        for (std::size_t j = body_start; j < stop && j < text.size(); ++j) {
          if (text[j] == '\n') ++line;
        }
        i = stop;
        line_has_code = true;
        continue;
      }
      tokens.push_back(Token{Token::Kind::kIdentifier, word, line});
      line_has_code = true;
      continue;
    }
    if (c == ':' && i + 1 < text.size() && text[i + 1] == ':') {
      tokens.push_back(Token{Token::Kind::kColonColon, text.substr(i, 2), line});
      i += 2;
      line_has_code = true;
      continue;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      tokens.push_back(Token{Token::Kind::kPunct, text.substr(i, 2), line});
      i += 2;
      line_has_code = true;
      continue;
    }
    tokens.push_back(Token{Token::Kind::kPunct, text.substr(i, 1), line});
    ++i;
    line_has_code = true;
  }
}

// --------------------------------------------------------------------------
// Matching.
// --------------------------------------------------------------------------

bool path_in_scope(std::string_view path, const Rule& rule) {
  for (const std::string& scope : rule.scopes) {
    if (path.size() > scope.size() && path.compare(0, scope.size(), scope) == 0 &&
        path[scope.size()] == '/') {
      return true;
    }
  }
  return false;
}

bool contains(const std::vector<std::string>& haystack, std::string_view needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

/// A maximal qualified-identifier run: `id (:: id)*`, optionally rooted with
/// a leading `::`.
struct QualifiedRun {
  std::vector<std::string_view> components;
  std::size_t first_token = 0;
  std::size_t past_last_token = 0;  ///< index one past the run
};

std::string join_run(const QualifiedRun& run) {
  std::string out;
  for (std::size_t i = 0; i < run.components.size(); ++i) {
    if (i > 0) out += "::";
    out += run.components[i];
  }
  return out;
}

}  // namespace

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kTable = build_rules();
  return kTable;
}

const Rule* find_rule(std::string_view id) {
  for (const Rule& rule : rules()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

Policy parse_policy(std::string_view json_text) {
  const JsonValue doc = JsonValue::parse(json_text);
  const std::uint64_t version = doc.at("schema_version").as_uint();
  if (version != 1) {
    throw ConfigError("lint_policy: unsupported schema_version " + std::to_string(version));
  }
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (key != "schema_version" && key != "allow") {
      throw ConfigError("lint_policy: unknown top-level key '" + key + "'");
    }
  }

  Policy policy;
  for (const JsonValue& item : doc.at("allow").items()) {
    PolicyEntry entry;
    for (const auto& [key, value] : item.members()) {
      if (key == "rule") {
        entry.rule = value.as_string();
      } else if (key == "file") {
        entry.file = value.as_string();
      } else if (key == "reason") {
        entry.reason = value.as_string();
      } else {
        throw ConfigError("lint_policy: unknown allow-entry key '" + key + "'");
      }
    }
    if (entry.rule.empty() || entry.file.empty()) {
      throw ConfigError("lint_policy: allow entry needs non-empty 'rule' and 'file'");
    }
    if (find_rule(entry.rule) == nullptr) {
      throw ConfigError("lint_policy: unknown rule '" + entry.rule + "'");
    }
    if (entry.reason.empty()) {
      throw ConfigError("lint_policy: allow entry for '" + entry.file +
                        "' is missing its reason");
    }
    policy.allow.push_back(std::move(entry));
  }
  return policy;
}

std::vector<PolicyEntry> stale_allow_entries(const Policy& policy,
                                             std::span<const std::string> scanned_files) {
  std::vector<PolicyEntry> stale;
  for (const PolicyEntry& entry : policy.allow) {
    if (std::find(scanned_files.begin(), scanned_files.end(), entry.file) ==
        scanned_files.end()) {
      stale.push_back(entry);
    }
  }
  return stale;
}

std::vector<Diagnostic> lint_source(std::string_view path, std::string_view text,
                                    const Policy& policy) {
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  lex(text, tokens, suppressions);

  std::vector<Diagnostic> diagnostics;

  // Suppression comments: validate, then build rule-id -> suppressed lines.
  std::map<std::string, std::set<std::size_t>, std::less<>> suppressed;
  for (const Suppression& s : suppressions) {
    if (!s.well_formed) {
      diagnostics.push_back(Diagnostic{
          std::string(path), s.line, kSuppressionRule,
          "malformed suppression: expected 'manet-lint: allow(<rule>[, ...]) — <reason>'"});
      continue;
    }
    bool usable = true;
    for (const std::string& id : s.rule_ids) {
      if (find_rule(id) == nullptr) {
        diagnostics.push_back(Diagnostic{std::string(path), s.line, kSuppressionRule,
                                         "unknown rule '" + id + "' in suppression"});
        usable = false;
      }
    }
    if (!s.has_reason) {
      diagnostics.push_back(Diagnostic{
          std::string(path), s.line, kSuppressionRule,
          "suppression is missing its reason (the part after the dash is mandatory)"});
      usable = false;
    }
    if (!usable) continue;
    for (const std::string& id : s.rule_ids) {
      suppressed[id].insert(s.line);
      // A comment alone on its line shields the next line that carries code
      // (intervening comment-only lines — the rest of a comment block —
      // produce no tokens and are skipped).
      if (s.whole_line) {
        const auto next_code = std::upper_bound(
            tokens.begin(), tokens.end(), s.line,
            [](std::size_t line, const Token& token) { return line < token.line; });
        if (next_code != tokens.end()) suppressed[id].insert(next_code->line);
      }
    }
  }

  // Which rules apply to this file at all?
  std::vector<const Rule*> active;
  for (const Rule& rule : rules()) {
    if (!path_in_scope(path, rule)) continue;
    if (contains(rule.allowed_files, path)) continue;
    bool policy_allowed = false;
    for (const PolicyEntry& entry : policy.allow) {
      if (entry.rule == rule.id && entry.file == path) {
        policy_allowed = true;
        break;
      }
    }
    if (!policy_allowed) active.push_back(&rule);
  }

  if (!active.empty()) {
    std::size_t i = 0;
    while (i < tokens.size()) {
      const bool starts_run =
          tokens[i].kind == Token::Kind::kIdentifier ||
          (tokens[i].kind == Token::Kind::kColonColon && i + 1 < tokens.size() &&
           tokens[i + 1].kind == Token::Kind::kIdentifier);
      if (!starts_run) {
        ++i;
        continue;
      }

      QualifiedRun run;
      run.first_token = i;
      std::size_t j = i;
      if (tokens[j].kind == Token::Kind::kColonColon) ++j;
      while (j < tokens.size() && tokens[j].kind == Token::Kind::kIdentifier) {
        run.components.push_back(tokens[j].text);
        ++j;
        if (j + 1 < tokens.size() && tokens[j].kind == Token::Kind::kColonColon &&
            tokens[j + 1].kind == Token::Kind::kIdentifier) {
          ++j;
        } else {
          break;
        }
      }
      run.past_last_token = j;

      // Member access (`x.time()`, `now().count()`) is never the banned
      // global entity.
      const bool member_access =
          run.first_token > 0 && tokens[run.first_token - 1].kind == Token::Kind::kPunct &&
          (tokens[run.first_token - 1].text == "." || tokens[run.first_token - 1].text == "->");
      const bool followed_by_call = run.past_last_token < tokens.size() &&
                                    tokens[run.past_last_token].kind == Token::Kind::kPunct &&
                                    tokens[run.past_last_token].text == "(";

      if (!member_access) {
        // Token index of component k: components sit at stride 2 from the
        // first identifier (`id :: id :: id`), one later when the run is
        // rooted with a leading `::`.
        const std::size_t first_id =
            run.first_token +
            (tokens[run.first_token].kind == Token::Kind::kColonColon ? 1 : 0);
        const std::string run_text = join_run(run);
        for (const Rule* rule : active) {
          for (const Pattern& pattern : rule->patterns) {
            if (pattern.require_call && !followed_by_call) continue;
            std::size_t match_component = run.components.size();  // npos
            if (pattern.kind == MatchKind::kExact) {
              if (run_text == pattern.text) match_component = 0;
            } else {
              for (std::size_t k = 0; k < run.components.size(); ++k) {
                const std::string_view comp = run.components[k];
                const bool hit = pattern.kind == MatchKind::kPrefix
                                     ? comp.substr(0, pattern.text.size()) == pattern.text
                                     : comp == pattern.text;
                if (hit) {
                  match_component = k;
                  break;
                }
              }
            }
            if (match_component == run.components.size()) continue;
            const std::size_t line = tokens[first_id + 2 * match_component].line;
            const auto it = suppressed.find(rule->id);
            if (it != suppressed.end() && it->second.count(line) > 0) continue;
            diagnostics.push_back(Diagnostic{std::string(path), line, rule->id,
                                             "banned name '" + run_text + "' — " +
                                                 rule->summary});
            break;  // one diagnostic per run per rule
          }
        }
      }
      i = run.past_last_token;
    }
  }

  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) { return a.line < b.line; });
  return diagnostics;
}

}  // namespace manet::lint
