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
#include <istream>
#include <string>
#include <vector>

#include "frontend.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"

namespace {

constexpr const char* kSynopsis =
    "         [--threads n] [--trace-timing] [--trace-out file]\n";
constexpr const char* kHelp =
    "charts the landscape from the whole trace at once. --metrics-out writes\n"
    "a botmeter.run_report.v1 document (matcher tallies, per-server\n"
    "populations, stage wall times); --trace-timing prints the phase table,\n"
    "--trace-out the Chrome trace_event spans. --threads shards matching and\n"
    "estimation over n threads (0 = all cores), bit-identically.\n";

int run(const botmeter::tools::CliArgs& args) {
  using namespace botmeter;
  tools::MeterOptions options = tools::meter_options(args);
  core::BotMeterConfig& config = options.meter;
  config.analyze_threads = static_cast<std::size_t>(args.int_or("--threads", 1));

  std::vector<dns::ForwardedLookup> stream;
  tools::read_trace_input(args, [&stream](std::istream& in, bool binary) {
    stream = binary ? trace::read_blocks(in) : trace::read_observable(in);
  });
  if (stream.empty()) throw DataError("empty observable trace");

  tools::RunSinks sinks(args, /*live=*/false, /*spans=*/true, config);
  config.history = sinks.history.get();

  core::BotMeter meter(config);
  {
    obs::ScopedTimer prepare_timer(config.trace, "analyze.prepare");
    meter.prepare_epochs(options.first_epoch, options.epoch_count);
  }
  const core::LandscapeReport report = meter.analyze(stream, options.server_count);

  json::Object echo = tools::config_echo(options);
  echo.emplace("stream_size", json::Value(static_cast<double>(stream.size())));
  sinks.write(args, "botmeter_analyze", std::move(echo));
  tools::print_landscape(args, report,
                         "# estimator: " + report.estimator_name + ", " +
                             std::to_string(stream.size()) +
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
