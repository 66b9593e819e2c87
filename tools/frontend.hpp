// The front end the landscape tools share: botmeter_analyze (batch),
// botmeter_stream (one live engine) and botmeter_cluster (sharded engines)
// all chart the paper's step 7, "report the landscape", and differ only in
// the engine behind it. This module turns their common flags into a meter
// configuration, feeds the border trace in either codec, serves the
// landscape routes, and prints the final table; each tool's main keeps what
// is specific to its engine.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include "cli_util.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "detect/matcher.hpp"
#include "dns/vantage.hpp"
#include "obs/event_journal.hpp"
#include "obs/http_exporter.hpp"
#include "obs/landscape_history.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace botmeter::tools {

/// What a tool adds to the shared front end: its own flags, as parsed and
/// as --help lists them. `live` tools (stream and cluster) also take the
/// streaming, feed, checkpoint and telemetry flags.
struct ToolSpec {
  const char* name = "";
  bool live = false;
  std::set<std::string> value_flags;
  std::set<std::string> bool_flags;
  const char* synopsis = "";  // its own flags, one "         [...]" line each
  const char* help = "";      // what it does, and what its own flags mean
};

/// Parse argv against the shared flags plus `spec`'s, answer --help, and
/// run `body`. A BotMeter error prints "error: ..." to stderr and exits 1;
/// only a ConfigError (a command-line mistake) also prints the usage.
int run_tool(int argc, char** argv, ToolSpec spec,
             const std::function<int(const CliArgs&)>& body);

/// The meter and its epoch window, from --family or --config (exactly one),
/// --estimator, --neg-ttl-min, --miss-rate, --assume-miss, --first-epoch
/// (default 40 for sliding-window pools, else 0), --epochs and --servers.
struct MeterOptions {
  core::BotMeterConfig meter;
  std::int64_t first_epoch = 0;
  std::int64_t epoch_count = 1;
  std::size_t server_count = 1;
};
[[nodiscard]] MeterOptions meter_options(const CliArgs& args);

/// Copy the meter and window into a StreamEngineConfig or ClusterConfig and
/// apply --lateness-ms and the compact-state flags (--compact-state,
/// --compact-spill, --compact-kmv-k). The server count stays the caller's:
/// the cluster routes it through its shard router.
template <typename LiveConfig>
void apply_live_options(const CliArgs& args, const MeterOptions& options,
                        LiveConfig& config) {
  config.meter = options.meter;
  config.first_epoch = options.first_epoch;
  config.epoch_count = options.epoch_count;
  if (args.value("--lateness-ms")) {
    config.allowed_lateness = milliseconds(args.int_or("--lateness-ms", 0));
  }
  config.compact_state = args.flag("--compact-state");
  config.compact_spill_threshold = static_cast<std::size_t>(args.int_or(
      "--compact-spill",
      static_cast<std::int64_t>(config.compact_spill_threshold)));
  config.compact.kmv_k = static_cast<std::uint32_t>(args.int_or(
      "--compact-kmv-k", static_cast<std::int64_t>(config.compact.kmv_k)));
}

/// Milliseconds since construction, on the steady clock.
class Stopwatch {
 public:
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

/// What a run records besides the table, each part present when the flags
/// ask for it: the metrics registry (--metrics-out, or `live` telemetry),
/// the span session (--metrics-out, --trace-timing or --trace-out, in tools
/// that take `spans`) and the landscape history (--history-out, or `live`).
/// The meter handed to the constructor points at the first two, so the
/// object must outlive every engine built from that meter.
class RunSinks {
 public:
  RunSinks(const CliArgs& args, bool live, bool spans,
           core::BotMeterConfig& meter);

  /// After the run: --history-out, the botmeter.run_report.v1 document
  /// (--metrics-out) with `config` as its config echo, the phase table
  /// (--trace-timing) and the Chrome span trace (--trace-out).
  void write(const CliArgs& args, const std::string& tool,
             json::Object config) const;

  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  std::unique_ptr<obs::LandscapeHistory> history;

 private:
  bool spans_ = false;
};

/// Write `value` pretty-printed to `path` and say so on stderr as
/// "<what> written to <path>"; DataError naming the path when the file
/// cannot be opened or the bytes do not reach it.
void write_json_file(const std::string& path, const json::Value& value,
                     const char* what);

/// Whole-file read; DataError when the file cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// Open the border trace — the --trace file, else stdin — and hand it to
/// `read` with whether it is in the binary block codec: --binary, or sniffed
/// from a --trace file (pipes cannot be sniffed).
void read_trace_input(const CliArgs& args,
                      const std::function<void(std::istream&, bool binary)>& read);

/// A tool's ingest sinks. A trace of either codec arrives as blocks of
/// resolved columns: `block.domain[i]` is tuple i's matcher entry id
/// (DomainMatcher::kNoEntry for traffic no window holds), resolved against
/// `matcher` — text blocks with one resolve_many per decoded buffer, binary
/// blocks through a remap of the file's string table. --simulate feeds
/// `tuple` instead, and its generator shares the tool's worker budget and
/// telemetry sinks.
struct FeedSinks {
  const detect::DomainMatcher* matcher = nullptr;
  std::function<void(const dns::LookupColumns&)> resolved;
  std::function<void(const dns::ForwardedLookup&)> tuple;
  std::size_t worker_threads = 1;
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
};

/// Run the whole feed into `sinks`: --simulate (--bots, --seed,
/// --granularity-ms) generates it from the meter and window, otherwise
/// read_trace_input replays it.
void run_feed(const CliArgs& args, const MeterOptions& options,
              const FeedSinks& sinks);

using Routes = std::map<std::string, obs::HttpExporter::Handler>;

/// A 200 response carrying `value` as one line of JSON.
[[nodiscard]] obs::HttpResponse json_response(const json::Value& value);

/// The live routes over the landscape history and the event journal:
/// /landscape, /landscape/history?server=&from=&to=&family= (404 for another
/// family, 400 for a malformed query), /landscape/summary and
/// /events?from=&shard=. Both referents must outlive the exporter.
[[nodiscard]] Routes landscape_routes(const obs::LandscapeHistory& history,
                                      const obs::EventJournal& journal,
                                      const std::string& family);

/// Serve `routes` on --listen's port (0 binds an ephemeral one), announce it
/// on stderr and write it to --listen-port-file.
[[nodiscard]] std::unique_ptr<obs::HttpExporter> start_exporter(
    const CliArgs& args, Routes routes);

/// Keep serving for --linger-ms, calling `sample` every 100 ms, then stop.
void linger_and_stop(const CliArgs& args, obs::HttpExporter& exporter,
                     const std::function<void()>& sample);

/// The final landscape: --viz renders the chart; otherwise `header`, one row
/// per server ("~" marks a sketch-approximate band) and the total.
void print_landscape(const CliArgs& args, const core::LandscapeReport& report,
                     const std::string& header);

/// The meter fields of the run report's config echo; tools add their own.
[[nodiscard]] json::Object config_echo(const MeterOptions& options);

}  // namespace botmeter::tools
