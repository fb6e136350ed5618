// manet-lint driver: walks src/, bench/, tests/ and tools/ under the repo
// root, lints every C++ source against the determinism rule table (lint.hpp)
// and exits nonzero on any unsuppressed violation or on a policy allow entry
// whose file is not among the scanned sources. Run locally via the `lint`
// CMake target or scripts/run_static_analysis.sh; CI runs it on every PR.

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"

namespace {

/// Directories the determinism contract covers, in scan order.
constexpr const char* kScanDirs[] = {"src", "bench", "tests", "tools"};

bool has_cpp_extension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp";
}

std::vector<std::string> collect_sources(const std::filesystem::path& root) {
  std::vector<std::string> files;
  for (const char* dir : kScanDirs) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::is_directory(base)) continue;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && has_cpp_extension(entry.path())) {
        // Repo-relative with forward slashes: the form the rule table,
        // policy file and diagnostics all use.
        files.push_back(std::filesystem::relative(entry.path(), root).generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void print_rules() {
  for (const manet::lint::Rule& rule : manet::lint::rules()) {
    std::cout << rule.id << "\n    " << rule.summary << "\n    scope:";
    for (const std::string& scope : rule.scopes) std::cout << ' ' << scope << '/';
    if (!rule.allowed_files.empty()) {
      std::cout << "\n    allowed:";
      for (const std::string& file : rule.allowed_files) std::cout << ' ' << file;
    }
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    manet::CliParser cli(
        "manet-lint: determinism & portability rules over src/, bench/, tests/ "
        "and tools/.\n"
        "Diagnostics: <file>:<line>: <rule-id>: <message>; exit 1 on violations.");
    cli.add_option("root", "repository root to scan", ".");
    cli.add_option("policy",
                   "lint policy JSON; empty means <root>/tools/lint/lint_policy.json",
                   "");
    cli.add_flag("list-rules", "print the rule table and exit");
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::cout << cli.help_text();
      return 0;
    }
    if (cli.flag("list-rules")) {
      print_rules();
      return 0;
    }

    const std::filesystem::path root = cli.string_value("root");
    std::filesystem::path policy_path = cli.string_value("policy");
    if (policy_path.empty()) policy_path = root / "tools" / "lint" / "lint_policy.json";
    const manet::lint::Policy policy =
        manet::lint::parse_policy(manet::read_text_file(policy_path));

    const std::vector<std::string> files = collect_sources(root);
    if (files.empty()) {
      std::cerr << "manet-lint: no sources found under " << root << '\n';
      return 2;
    }

    const std::vector<manet::lint::PolicyEntry> stale =
        manet::lint::stale_allow_entries(policy, files);
    for (const manet::lint::PolicyEntry& entry : stale) {
      std::cout << policy_path.generic_string() << ": stale allow entry: '" << entry.rule
                << "' for " << entry.file << ", which is not among the scanned sources\n";
    }

    std::size_t violation_count = 0;
    std::size_t files_with_violations = 0;
    for (const std::string& file : files) {
      const std::string text = manet::read_text_file(root / file);
      const std::vector<manet::lint::Diagnostic> diagnostics =
          manet::lint::lint_source(file, text, policy);
      if (!diagnostics.empty()) ++files_with_violations;
      violation_count += diagnostics.size();
      for (const manet::lint::Diagnostic& d : diagnostics) {
        std::cout << d.file << ':' << d.line << ": " << d.rule << ": " << d.message << '\n';
      }
    }

    if (violation_count > 0 || !stale.empty()) {
      std::cerr << "manet-lint: " << violation_count << " violation(s) in "
                << files_with_violations << " of " << files.size() << " files, "
                << stale.size() << " stale allow entries\n";
      return 1;
    }
    std::cout << "manet-lint: OK (" << files.size() << " files clean)\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "manet-lint: error: " << error.what() << '\n';
    return 2;
  }
}
