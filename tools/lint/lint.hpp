#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace manet::lint {

/// The project-specific determinism & portability linter.
///
/// The repo's core guarantee — bit-identical results across thread counts,
/// resumes, hosts and locales — is a set of *source-level* invariants that a
/// generic tool cannot express: locale-sensitive number formatting belongs
/// in support/numeric.hpp only, wall-clock reads in the metrics/telemetry
/// layer only, hash-ordered containers nowhere near a result path. This
/// library enforces those invariants with a comment/string-literal-aware
/// lexer and a declarative rule table (rules()); the `manet_lint` binary
/// (tools/lint/main.cpp) drives it over src/, bench/, tests/ and tools/.
///
/// Escape hatches, both requiring a stated reason:
///  * file-level: an entry in tools/lint/lint_policy.json
///    ({"rule": ..., "file": ..., "reason": ...});
///  * line-level: a suppression comment — "allow(rule-id, ...) dash reason"
///    after the linter's own marker prefix — on the offending line, or alone
///    on the line above it. (The exact spelling is not written out here: the
///    linter scans this header too, and a literal example would parse as a
///    malformed suppression.)

/// One finding, rendered as "file:line: rule-id: message".
struct Diagnostic {
  std::string file;      ///< repo-relative, forward slashes
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// How a banned-name pattern is matched against a qualified-identifier run
/// (a maximal `a::b::c` token sequence outside comments and literals).
enum class MatchKind {
  /// Any `::`-separated component equals the pattern text; catches
  /// `steady_clock` inside `std::chrono::steady_clock::now` and the header
  /// name token in `#include <mutex>`.
  kComponent,
  /// The whole run equals the pattern text; used where a bare component
  /// would collide with a legitimate name (`std::fixed` must not flag
  /// `std::chars_format::fixed`).
  kExact,
  /// Any component *starts with* the pattern text; the only way to cover an
  /// open-ended intrinsic family (`_mm_`, `_mm256_`, `vqaddq_`...) whose
  /// members cannot be enumerated.
  kPrefix,
};

struct Pattern {
  std::string text;
  MatchKind kind = MatchKind::kComponent;
  /// Only flag when the run is immediately followed by '(' — separates the
  /// call `time(nullptr)` from a variable or member that happens to be
  /// named `time`.
  bool require_call = false;
};

struct Rule {
  std::string id;
  /// One-line statement of the invariant, appended to every diagnostic.
  std::string summary;
  /// Top-level directories the rule applies to ("src", "bench", "tests").
  std::vector<std::string> scopes;
  /// The designated seams: repo-relative files where the banned names are
  /// the implementation, not a violation.
  std::vector<std::string> allowed_files;
  std::vector<Pattern> patterns;
};

/// The determinism contract as a rule table. Order is stable; ids are the
/// public names used by suppressions and the policy file.
const std::vector<Rule>& rules();

/// Pointer to a rule by id, or nullptr.
const Rule* find_rule(std::string_view id);

struct PolicyEntry {
  std::string rule;
  std::string file;
  std::string reason;
};

struct Policy {
  std::vector<PolicyEntry> allow;
};

/// Parses and validates a lint_policy.json document (schema_version 1).
/// Unknown rule ids, unknown keys, non-string fields and empty reasons are
/// ConfigErrors — a stale or hand-mangled policy must not silently widen
/// the allowlist.
Policy parse_policy(std::string_view json_text);

/// The allow entries whose `file` is not among `scanned_files`
/// (repo-relative, forward slashes): grants that outlived their file. The
/// driver reports each one and fails, so a deleted file's exemption cannot
/// linger in the policy and silently cover a future file of the same name.
std::vector<PolicyEntry> stale_allow_entries(const Policy& policy,
                                             std::span<const std::string> scanned_files);

/// Lints one file's contents against every rule whose scope covers `path`
/// (repo-relative, forward slashes). Diagnostics come back in source order.
std::vector<Diagnostic> lint_source(std::string_view path, std::string_view text,
                                    const Policy& policy);

}  // namespace manet::lint
