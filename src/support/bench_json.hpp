#pragma once

#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace manet {

/// The one JSON schema every machine-readable performance / campaign
/// artifact in this repo is emitted through (the figures' --metrics
/// section, the campaigns' result.json and metrics.json):
///
///   {
///     "schema_version": 1,
///     "name": "<artifact name, e.g. emst_grid_vs_dense>",
///     "git_describe": "<git describe --always --dirty, or 'unknown'>",
///     "params": { ...workload / configuration knobs... },
///     "samples": [ { ...one measured point each... } ],
///     ...artifact-specific extra fields...
///   }
///
/// Keeping name/params/samples uniform lets a script diff artifacts from
/// different commits without per-artifact parsers. `git_describe` records provenance; for
/// deterministic artifacts that must be byte-comparable across *runs of the
/// same build* (campaign result.json) it is constant, because the binary is.
class BenchReport {
 public:
  /// `name` identifies the artifact ("campaign_fig7").
  explicit BenchReport(std::string name);

  /// Workload / configuration knobs (rendered under "params", insertion
  /// order preserved).
  void add_param(std::string key, JsonValue value);

  /// Appends one measured point (an object) to "samples".
  void add_sample(JsonValue sample);

  /// Artifact-specific top-level fields, rendered after "samples"
  /// (e.g. "bit_identical": true verdicts).
  void add_extra(std::string key, JsonValue value);

  /// Overrides the provenance string (defaults to git_describe()).
  void set_git_describe(std::string describe);

  /// Assembles the schema above as a document / renders it (2-space
  /// pretty-printed, deterministic given identical content).
  JsonValue to_json() const;
  std::string dump() const;

 private:
  std::string name_;
  std::string git_describe_;
  std::vector<std::pair<std::string, JsonValue>> params_;
  std::vector<JsonValue> samples_;
  std::vector<std::pair<std::string, JsonValue>> extra_;
};

/// `git describe --always --dirty` of the working tree, "unknown" when git
/// or the repository is unavailable. Cached after the first call.
const std::string& git_describe();

}  // namespace manet
