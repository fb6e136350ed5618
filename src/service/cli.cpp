#include "service/cli.hpp"

#include "campaign/cli.hpp"
#include "support/error.hpp"

namespace manet::service {

void add_drain_cli_options(CliParser& cli) {
  cli.add_flag("distributed",
               "drain the campaign cooperatively: claim unit leases in the shared "
               "store so N worker processes fill one campaign (implies --campaign)");
  cli.add_option("worker-id",
                 "lease owner id of this worker (required with --distributed; unique "
                 "per concurrent worker)",
                 "");
  cli.add_option("lease-ttl",
                 "seconds a lease may go without a heartbeat before other workers "
                 "may steal it",
                 "30");
  cli.add_option("drain-poll",
                 "seconds to sleep between claim passes when every remaining unit "
                 "is leased to another worker (at most --drain-max-wait)",
                 "0.05");
  cli.add_option("drain-max-wait",
                 "abort after this many seconds of accumulated waiting without any "
                 "unit completing (at most 1e9)",
                 "600");
}

bool drain_requested(const CliParser& cli) {
  return cli.flag("distributed") || cli.was_set("worker-id");
}

DrainOptions drain_options_from_cli(const CliParser& cli,
                                    const std::string& campaign_name) {
  DrainOptions options;
  options.campaign = campaign::campaign_options_from_cli(cli, campaign_name);
  options.worker = cli.string_value("worker-id");
  if (options.worker.empty()) {
    throw ConfigError("drain: --distributed needs a --worker-id unique to this worker");
  }
  options.lease_ttl_seconds = cli.double_value("lease-ttl");
  options.poll_seconds = cli.double_value("drain-poll");
  options.max_wait_seconds = cli.double_value("drain-max-wait");
  return options;
}

}  // namespace manet::service
