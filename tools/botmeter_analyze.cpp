// botmeter_analyze — chart a DGA-botnet landscape from a border DNS trace.
//
// Reads an observable trace (the tab-separated format of trace/io.hpp, as
// produced by botmeter_simulate or an external collector) from stdin or a
// file and estimates the bot population behind every local DNS server.
//
// Usage:
//   botmeter_analyze --family <name> [--estimator <model>] [--servers n]
//                    [--epochs n] [--first-epoch e] [--neg-ttl-min m]
//                    [--miss-rate x] [--assume-miss x] [--trace file] [--viz]
// Example:
//   botmeter_simulate --family newGoZ --bots 64 --servers 4 |
//     botmeter_analyze --family newGoZ --servers 4 --viz
#include <string>
#include <utility>

#include "frontend.hpp"

namespace {

constexpr const char* kSynopsis =
    "         [--threads n] [--trace-timing] [--trace-out file]\n";
constexpr const char* kHelp =
    "matches the trace as it decodes, then charts every epoch at once.\n"
    "--metrics-out writes a botmeter.run_report.v1 document (matcher\n"
    "tallies, per-server populations, stage wall times); --trace-timing\n"
    "prints the phase table, --trace-out the Chrome trace_event spans.\n"
    "--threads shards estimation over n threads (0 = all cores),\n"
    "bit-identically.\n";

int run(const botmeter::tools::CliArgs& args) {
  using namespace botmeter;
  tools::MeterOptions options = tools::meter_options(args);
  core::BotMeterConfig& config = options.meter;
  config.analyze_threads = static_cast<std::size_t>(args.int_or("--threads", 1));

  tools::RunSinks sinks(args, /*live=*/false, /*spans=*/true, config);
  config.history = sinks.history.get();

  core::BotMeter meter(config);
  {
    obs::ScopedTimer prepare_timer(config.trace, "analyze.prepare");
    meter.prepare_epochs(options.first_epoch, options.epoch_count);
  }
  // Match as the trace decodes: only the matched residue is kept, bucketed
  // per (server, epoch), never the trace itself.
  detect::MatchedStreams matched;
  detect::MatchStats stats;
  tools::FeedSinks feed;
  feed.matcher = &meter.matcher();
  feed.resolved = [&](const dns::LookupColumns& block) {
    meter.matcher().match_block(block, matched, stats);
  };
  feed.trace = config.trace;
  {
    obs::ScopedTimer match_timer(config.trace, "analyze.match");
    tools::run_feed(args, options, feed);
  }
  if (stats.stream_size == 0) throw DataError("empty observable trace");
  const core::LandscapeReport report =
      meter.analyze_matched(std::move(matched), stats, options.server_count);

  json::Object echo = tools::config_echo(options);
  echo.emplace("stream_size",
               json::Value(static_cast<double>(stats.stream_size)));
  sinks.write(args, "botmeter_analyze", std::move(echo));
  tools::print_landscape(args, report,
                         "# estimator: " + report.estimator_name + ", " +
                             std::to_string(stats.stream_size) +
                             " lookups analyzed");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return botmeter::tools::run_tool(
      argc, argv,
      {"botmeter_analyze", /*live=*/false, {"--threads", "--trace-out"},
       {"--trace-timing"}, kSynopsis, kHelp},
      run);
}
