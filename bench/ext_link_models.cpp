// EXTENSION bench: the energy/savings trade-off of Section 4, re-asked under
// each link model behind the LinkModel seam (graph/link_model.hpp).
//
// The paper prices connectivity with the unit-disk rule: every node hears
// every neighbor within the common range r, full stop. Real radios fade
// (log-normal shadowing) and real fleets mix device classes (heterogeneous
// per-node ranges, where links become directed and "connected" means
// strongly connected). This bench runs the identical methodology — sample
// the critical-scale distribution over independent deployments, read the
// "always connected" (p_full) and "usually connected" (p_tolerant) targets
// off its exact order statistics, price the relaxation with the r^alpha
// energy model — once per link model, so the rows are directly comparable.
//
// Expected: shadowing stretches the upper tail (one deeply faded pair can
// hold the whole deployment hostage), so both targets rise and the relative
// saving from tolerating disconnection grows; heterogeneous ranges raise the
// required base scale roughly by 1/min_factor while leaving the *relative*
// trade-off close to the unit disk. All rows are bit-identical at any
// --threads setting (the determinism contract of DESIGN.md §3 and §17).

#include <charconv>
#include <iostream>
#include <string>

#include "core/experiments.hpp"
#include "graph/link_model.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

/// A range column cell: two decimals, or three significant digits in
/// scientific form (1.23e-04) when two decimals would print a nonzero range
/// as 0.00.
std::string range_cell(double range) {
  std::string fixed = manet::TextTable::num(range, 2);
  if (range == 0.0 || fixed != "0.00") return fixed;
  char buffer[32];  // "-d.dde-ddd" at most
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), range, std::chars_format::scientific, 2);
  return std::string(buffer, result.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace manet;
  try {
    CliParser cli(
        "ext_link_models: energy/savings trade-off per link model (unit disk, "
        "log-normal shadowing, heterogeneous ranges)");
    cli.add_option("link-model", "model to sweep: all|unit-disk|shadowing|heterogeneous",
                   "all");
    cli.add_option("shadowing-sigma", "shadowing std deviation in dB", "6.0");
    cli.add_option("path-loss", "path-loss exponent eta of the shadowing model", "3.0");
    cli.add_option("z-clip", "fading deviates clipped to +-z standard deviations", "3.0");
    cli.add_option("min-range-factor", "heterogeneous per-node range factor lower bound",
                   "0.5");
    cli.add_option("max-range-factor", "heterogeneous per-node range factor upper bound",
                   "1.0");
    cli.add_option("nodes", "nodes per deployment", "64");
    cli.add_option("side", "deployment region side l", "4096");
    cli.add_option("trials", "independent deployments per model", "100");
    cli.add_option("alpha", "path-loss exponent of the energy model", "2.0");
    cli.add_option("p-full", "\"always connected\" target probability", "0.99");
    cli.add_option("p-tolerant", "relaxed connectivity target probability", "0.90");
    cli.add_option("seed", "root seed", "2002");
    cli.add_option("threads", "worker threads (0 = default, 1 = serial)", "0");
    cli.add_flag("csv", "emit CSV instead of the text table");
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::cout << cli.help_text();
      return 0;
    }

    if (cli.uint_value("threads") > 0) {
      set_max_parallelism(static_cast<std::size_t>(cli.uint_value("threads")));
    }

    LinkModelMenu menu;
    menu.shadowing.sigma_db = cli.double_value("shadowing-sigma");
    menu.shadowing.path_loss_exponent = cli.double_value("path-loss");
    menu.shadowing.z_clip = cli.double_value("z-clip");
    menu.min_range_factor = cli.double_value("min-range-factor");
    menu.max_range_factor = cli.double_value("max-range-factor");

    std::vector<std::unique_ptr<LinkModelFamily>> owned;
    const std::string selection = cli.string_value("link-model");
    if (selection == "all") {
      for (const std::string& name : link_model_family_names()) {
        owned.push_back(make_link_model_family(name, menu));
      }
    } else {
      owned.push_back(make_link_model_family(selection, menu));
    }
    std::vector<const LinkModelFamily*> families;
    for (const auto& family : owned) families.push_back(family.get());

    experiments::LinkModelTradeoffConfig config;
    config.node_count = static_cast<std::size_t>(cli.uint_value("nodes"));
    config.side = cli.double_value("side");
    config.trials = static_cast<std::size_t>(cli.uint_value("trials"));
    config.alpha = cli.double_value("alpha");
    config.p_full = cli.double_value("p-full");
    config.p_tolerant = cli.double_value("p-tolerant");

    const auto rows =
        experiments::link_model_energy_tradeoff(config, families, cli.uint_value("seed"));

    TextTable table({"model", "r_full", "r_tolerant", "mean rc", "range cut", "energy saved"});
    for (const auto& row : rows) {
      table.add_row({row.model, range_cell(row.r_full), range_cell(row.r_tolerant),
                     range_cell(row.mean_critical_range),
                     TextTable::num(row.range_reduction, 4),
                     TextTable::num(row.energy_savings, 4)});
    }
    if (cli.flag("csv")) {
      table.print_csv(std::cout);
    } else {
      std::cout << "Extension — energy/savings trade-off per link model (n=" << config.node_count
                << ", l=" << config.side << ", trials=" << config.trials
                << ", p_full=" << config.p_full << ", p_tolerant=" << config.p_tolerant
                << ")\n";
      table.print(std::cout);
      std::cout << "Extension beyond the paper: Section 4's trade-off under non-unit-disk link\n"
                   "models via the LinkModel seam (DESIGN.md §17). See EXPERIMENTS.md.\n";
    }
    return 0;
  } catch (const ConfigError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
