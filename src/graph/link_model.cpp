#include "graph/link_model.hpp"

#include <algorithm>
#include <cmath>

namespace manet {

// ---------------------------------------------------------------------------
// UnitDiskLinkModel
// ---------------------------------------------------------------------------

UnitDiskLinkModel::UnitDiskLinkModel(double radius) : radius_(radius) {
  if (!(radius > 0.0)) {
    throw ConfigError("UnitDiskLinkModel: radius must be > 0");
  }
}

// ---------------------------------------------------------------------------
// ShadowingLinkModel
// ---------------------------------------------------------------------------

void ShadowingParams::validate() const {
  // Negated comparisons reject NaN; the isfinite checks reject the infinities
  // from_chars accepts from CLI text ("inf").
  if (!(reference_range > 0.0) || !std::isfinite(reference_range)) {
    throw ConfigError("ShadowingParams: reference_range must be finite and > 0");
  }
  if (!(sigma_db >= 0.0) || !std::isfinite(sigma_db)) {
    throw ConfigError("ShadowingParams: sigma_db must be finite and >= 0");
  }
  if (!(path_loss_exponent > 0.0) || !std::isfinite(path_loss_exponent)) {
    throw ConfigError("ShadowingParams: path_loss_exponent must be finite and > 0");
  }
  if (!(z_clip > 0.0) || !std::isfinite(z_clip)) {
    throw ConfigError("ShadowingParams: z_clip must be finite and > 0");
  }
  if (!std::isfinite(max_gain_factor())) {
    throw ConfigError("ShadowingParams: sigma_db * z_clip / path_loss_exponent overflows the "
                      "maximum fading gain");
  }
}

double ShadowingParams::max_gain_factor() const {
  return std::pow(10.0, sigma_db * z_clip / (10.0 * path_loss_exponent));
}

ShadowingLinkModel::ShadowingLinkModel(const ShadowingParams& params) : params_(params) {
  params_.validate();
  max_link_distance_ = params_.reference_range * params_.max_gain_factor();
}

double ShadowingLinkModel::pair_gain(std::size_t u, std::size_t v) const {
  if (params_.sigma_db == 0.0) return 1.0;  // exact unit-disk degeneration
  const std::uint64_t lo = std::min(u, v);
  const std::uint64_t hi = std::max(u, v);
  // Pure function of (seed, unordered pair): nested substreams mean pair
  // (a, b) and pair (a, c) draw from decorrelated streams, and enumeration
  // order / thread count cannot affect the value.
  Rng pair_rng(substream_seed(substream_seed(params_.fading_seed, lo), hi));
  const double z = std::clamp(pair_rng.normal(), -params_.z_clip, params_.z_clip);
  return std::pow(10.0, params_.sigma_db * z / (10.0 * params_.path_loss_exponent));
}

// ---------------------------------------------------------------------------
// HeterogeneousRangeLinkModel
// ---------------------------------------------------------------------------

HeterogeneousRangeLinkModel::HeterogeneousRangeLinkModel(RangeAssignment assignment)
    : assignment_(std::move(assignment)), max_range_(assignment_.max_range()) {}

void HeterogeneousRangeLinkModel::validate_for(std::size_t node_count) const {
  if (node_count != assignment_.node_count()) {
    throw ConfigError("HeterogeneousRangeLinkModel: deployment size does not match the "
                      "range assignment's node count");
  }
}

// ---------------------------------------------------------------------------
// Families
// ---------------------------------------------------------------------------

namespace {

void require_positive_range(double range, const char* family) {
  if (!(range > 0.0)) {
    throw ConfigError(std::string(family) + " family: range must be > 0");
  }
}

}  // namespace

std::unique_ptr<LinkModel> UnitDiskLinkFamily::at_range(double range, std::size_t,
                                                        std::uint64_t) const {
  require_positive_range(range, name());
  return std::make_unique<UnitDiskLinkModel>(range);
}

ShadowingLinkFamily::ShadowingLinkFamily(ShadowingParams base) : base_(base) {
  base_.reference_range = 1.0;  // overridden per at_range call; keep valid
  base_.validate();
}

std::unique_ptr<LinkModel> ShadowingLinkFamily::at_range(double range, std::size_t,
                                                         std::uint64_t fading_seed) const {
  require_positive_range(range, name());
  ShadowingParams params = base_;
  params.reference_range = range;
  params.fading_seed = fading_seed;
  return std::make_unique<ShadowingLinkModel>(params);
}

HeterogeneousRangeLinkFamily::HeterogeneousRangeLinkFamily(double min_factor,
                                                           double max_factor)
    : min_factor_(min_factor), max_factor_(max_factor) {
  if (!(min_factor > 0.0) || !std::isfinite(min_factor)) {
    throw ConfigError("HeterogeneousRangeLinkFamily: min_factor must be finite and > 0");
  }
  if (!(max_factor >= min_factor) || !std::isfinite(max_factor)) {
    throw ConfigError(
        "HeterogeneousRangeLinkFamily: max_factor must be finite and >= min_factor");
  }
}

std::unique_ptr<LinkModel> HeterogeneousRangeLinkFamily::at_range(
    double range, std::size_t node_count, std::uint64_t fading_seed) const {
  require_positive_range(range, name());
  std::vector<double> ranges(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    // Per-node factor from the substream (fading_seed, i): pure in the node
    // id, so the assignment is identical at any thread count.
    Rng node_rng = substream(fading_seed, i);
    const double f = min_factor_ + (max_factor_ - min_factor_) * node_rng.uniform();
    ranges[i] = range * f;
  }
  return std::make_unique<HeterogeneousRangeLinkModel>(RangeAssignment(std::move(ranges)));
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

const std::vector<std::string>& link_model_family_names() {
  static const std::vector<std::string> kNames = {"unit-disk", "shadowing", "heterogeneous"};
  return kNames;
}

std::unique_ptr<LinkModelFamily> make_link_model_family(const std::string& name,
                                                        const LinkModelMenu& menu) {
  if (name == "unit-disk") {
    return std::make_unique<UnitDiskLinkFamily>();
  }
  if (name == "shadowing") {
    return std::make_unique<ShadowingLinkFamily>(menu.shadowing);
  }
  if (name == "heterogeneous") {
    return std::make_unique<HeterogeneousRangeLinkFamily>(menu.min_range_factor,
                                                          menu.max_range_factor);
  }
  throw ConfigError("unknown link model '" + name +
                    "' (expected unit-disk, shadowing or heterogeneous)");
}

}  // namespace manet
