// botmeter_stream — chart a DGA-botnet landscape *incrementally* from a live
// or replayed border feed.
//
// Unlike botmeter_analyze (which matches the whole trace, then estimates
// every epoch at once), this tool pushes the feed block by block through
// stream::StreamEngine: memory stays bounded by the active epoch window, an
// estimate line is printed the moment each epoch closes, and the final
// landscape is bit-identical to what botmeter_analyze would print on the
// same stream.
//
// Usage:
//   botmeter_simulate --family newGoZ --bots 64 --servers 4 |
//     botmeter_stream --family newGoZ --servers 4
//   botmeter_stream --family newGoZ --simulate --bots 64 --servers 4
//     --epochs 6 --checkpoint-out cp.json --metrics-out run.json
#include <cstdio>
#include <optional>
#include <sstream>

#include "frontend.hpp"
#include "obs/expose.hpp"
#include "stream/health_monitor.hpp"
#include "stream/stream_engine.hpp"

namespace {

constexpr const char* kSynopsis =
    "         [--threads n] [--trace-timing] [--trace-out file]\n"
    "         [--health-degraded-lag-ms n] [--health-unhealthy-lag-ms n]\n"
    "         [--health-degraded-late-rate x] [--health-unhealthy-late-rate x]\n"
    "         [--health-recovery-hold-ms n]\n";
constexpr const char* kHelp =
    "ingests the feed block by block (--simulate tuple by tuple) and\n"
    "prints one line per closed epoch plus the final landscape,\n"
    "bit-identical to botmeter_analyze. Checkpoints are\n"
    "botmeter.stream_checkpoint.v1. --metrics-out writes a\n"
    "botmeter.run_report.v1 document (ingest throughput, flush latency,\n"
    "resident state); --trace-timing prints the phase table, --trace-out the\n"
    "Chrome trace_event spans (open in Perfetto).\n"
    "GET /metrics is the Prometheus exposition (with *.per_sec rates) and GET\n"
    "/healthz the stream health (503 when unhealthy; ?format=json for the\n"
    "signal vector), with thresholds from the --health-* flags.\n";

int run(const botmeter::tools::CliArgs& args) {
  using namespace botmeter;
  const tools::MeterOptions options = tools::meter_options(args);
  stream::StreamEngineConfig config;
  tools::apply_live_options(args, options, config);
  config.server_count = options.server_count;
  config.worker_threads = static_cast<std::size_t>(args.int_or("--threads", 1));

  const bool live = args.value("--listen").has_value();
  tools::RunSinks sinks(args, live, /*spans=*/true, config.meter);
  // Landscape time-series history: recorded by the engine at every epoch
  // close, queried live through the exporter and/or written after the run.
  config.history = sinks.history.get();

  // Live telemetry: health monitor fed from the ingest thread, scrape
  // endpoint served from the exporter's own thread. The exporter only
  // reads registry snapshots, the monitor's last state, and
  // copy-under-mutex landscape history documents — it never touches the
  // engine, so attaching it cannot perturb results.
  stream::StreamHealthConfig health_config;
  health_config.degraded_watermark_lag_ms =
      args.double_or("--health-degraded-lag-ms",
                     health_config.degraded_watermark_lag_ms);
  health_config.unhealthy_watermark_lag_ms =
      args.double_or("--health-unhealthy-lag-ms",
                     health_config.unhealthy_watermark_lag_ms);
  health_config.degraded_late_rate = args.double_or(
      "--health-degraded-late-rate", health_config.degraded_late_rate);
  health_config.unhealthy_late_rate = args.double_or(
      "--health-unhealthy-late-rate", health_config.unhealthy_late_rate);
  health_config.recovery_hold_ms = args.double_or(
      "--health-recovery-hold-ms", health_config.recovery_hold_ms);

  const tools::Stopwatch wall;

  std::optional<stream::StreamHealthMonitor> monitor;
  // Flight-recorder journal behind /events: epoch closes, watermark
  // advances, checkpoint/restore, as the engine reports them.
  std::optional<obs::EventJournal> journal;
  if (live) {
    monitor.emplace(health_config, &sinks.metrics);
    // Stamp the monitor's state onto each history row at close time.
    config.health = &*monitor;
    journal.emplace();
    config.journal = &*journal;
  }

  stream::StreamEngine engine(config);

  // Derived per-second rate gauges, advanced once per /metrics scrape.
  // tick() runs only on the exporter thread (scrapes are serialized).
  obs::RateTracker rates({"stream.ingested", "stream.closed_epochs"});
  std::unique_ptr<obs::HttpExporter> exporter;
  if (live) {
    tools::Routes routes =
        tools::landscape_routes(*sinks.history, *journal,
                                config.meter.dga.name);
    routes["/metrics"] = [&sinks, &rates, &wall](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.content_type = obs::kPrometheusContentType;
      obs::MetricsRegistry::Snapshot snapshot = sinks.metrics.snapshot();
      rates.tick(snapshot, wall.ms());
      response.body = obs::expose_prometheus(snapshot);
      return response;
    };
    routes["/healthz"] = [&monitor](const obs::HttpRequest& request) {
      obs::HttpResponse response;
      response.status =
          monitor->state() == stream::HealthState::kUnhealthy ? 503 : 200;
      if (request.param("format").value_or("") == "json") {
        response.content_type = "application/json; charset=utf-8";
        response.body = monitor->render_json() + "\n";
      } else {
        response.body = monitor->render();
      }
      return response;
    };
    exporter = tools::start_exporter(args, std::move(routes));
  }

  if (auto checkpoint_path = args.value("--checkpoint-in")) {
    engine.restore(json::parse(tools::read_file(*checkpoint_path)));
    std::fprintf(stderr,
                 "resumed from %s: %llu tuples already ingested, next epoch "
                 "to close %lld\n",
                 checkpoint_path->c_str(),
                 static_cast<unsigned long long>(engine.ingested()),
                 static_cast<long long>(engine.next_epoch_to_close()));
  }

  engine.on_epoch_close([](const stream::EpochReport& report) {
    std::ostringstream line;
    line << "epoch " << report.epoch << ": total=" << report.total_population();
    for (const core::ServerEstimate& s : report.servers) {
      line << " server-" << s.server.value() << "=" << s.population;
    }
    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
  });

  // Health samples ride the ingest thread (engine accessors are not
  // synchronized against ingest): one per trace block (a text buffer refill
  // or a binary block), one every 4096 tuples of a --simulate feed — both
  // sub-second at realistic rates and invisible in the profile.
  std::uint64_t ingest_tick = 0;
  tools::FeedSinks feed;
  feed.matcher = &engine.meter().matcher();
  feed.resolved = [&](const dns::LookupColumns& block) {
    engine.ingest_resolved(block);
    if (monitor) monitor->sample(engine, wall.ms());
  };
  feed.tuple = [&](const dns::ForwardedLookup& lookup) {
    engine.ingest(lookup);
    if (monitor && (++ingest_tick & 0xFFF) == 0) {
      monitor->sample(engine, wall.ms());
    }
  };
  feed.worker_threads = config.worker_threads;
  feed.metrics = config.meter.metrics;
  feed.trace = config.meter.trace;
  const tools::Stopwatch ingest_clock;
  tools::run_feed(args, options, feed);
  if (monitor) monitor->sample(engine, wall.ms());
  const double ingest_ms = ingest_clock.ms();
  const double tuples_per_sec =
      ingest_ms > 0.0
          ? static_cast<double>(engine.ingested()) / (ingest_ms / 1000.0)
          : 0.0;
  if (args.value("--metrics-out")) {
    sinks.metrics.gauge("stream.ingest_wall_ms").set(ingest_ms);
    sinks.metrics.gauge("stream.ingest_tuples_per_sec").set(tuples_per_sec);
  }
  if (config.meter.trace != nullptr) {
    config.meter.trace->record("stream.ingest", ingest_ms);
  }

  if (auto path = args.value("--checkpoint-out")) {
    tools::write_json_file(*path, engine.checkpoint(), "checkpoint");
  }

  std::fprintf(stderr,
               "ingested %llu tuples (%.0f/s): %llu matched, %llu "
               "unmatched, %llu late-dropped; peak resident %zu lookups "
               "(%zu peak open bytes)\n",
               static_cast<unsigned long long>(engine.ingested()),
               tuples_per_sec,
               static_cast<unsigned long long>(engine.matched()),
               static_cast<unsigned long long>(engine.unmatched()),
               static_cast<unsigned long long>(engine.late_dropped()),
               engine.peak_resident_lookups(),
               engine.peak_open_buffer_bytes());
  if (config.compact_state) {
    std::fprintf(stderr, "compact state: %llu bucket spills\n",
                 static_cast<unsigned long long>(engine.compact_spills()));
  }

  if (!args.flag("--no-final")) {
    const core::LandscapeReport report = engine.finish();
    tools::print_landscape(args, report, "# estimator: " + report.estimator_name);
  }
  json::Object echo = tools::config_echo(options);
  echo.emplace("worker_threads",
               json::Value(static_cast<double>(config.worker_threads)));
  echo.emplace("source", json::Value(std::string(
                             args.flag("--simulate") ? "simulate" : "trace")));
  echo.emplace("ingested", json::Value(static_cast<double>(engine.ingested())));
  sinks.write(args, "botmeter_stream", std::move(echo));

  if (exporter) {
    tools::linger_and_stop(args, *exporter,
                           [&] { monitor->sample(engine, wall.ms()); });
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return botmeter::tools::run_tool(
      argc, argv,
      {"botmeter_stream", /*live=*/true,
       {"--threads", "--trace-out", "--health-degraded-lag-ms",
        "--health-unhealthy-lag-ms", "--health-degraded-late-rate",
        "--health-unhealthy-late-rate", "--health-recovery-hold-ms"},
       {"--trace-timing"}, kSynopsis, kHelp},
      run);
}
