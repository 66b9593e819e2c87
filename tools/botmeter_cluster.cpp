// botmeter_cluster — chart one global DGA-botnet landscape from a multi-border
// feed with sharded stream engines.
//
// Where botmeter_stream runs one engine on one thread, this tool runs the
// cluster runtime (src/cluster/): servers are partitioned across --shards
// engines, each on its own worker thread behind a bounded ingest queue, and
// per-shard epoch closes are merged watermark-aligned into a single global
// landscape — byte-identical to what botmeter_stream would chart on the same
// union feed, at any shard count.
//
// Usage:
//   botmeter_simulate --family newGoZ --bots 64 --servers 8 |
//     botmeter_cluster --family newGoZ --servers 8 --shards 4
//   botmeter_cluster --family newGoZ --simulate --bots 64 --servers 8
//     --shards 4 --epochs 6 --listen 0 --history-out series.json
#include <cstdio>
#include <optional>
#include <sstream>

#include "cluster/cluster_runtime.hpp"
#include "frontend.hpp"
#include "obs/expose.hpp"
#include "obs/lag_tracker.hpp"
#include "stream/health_monitor.hpp"

namespace {

constexpr const char* kSynopsis =
    "         [--shards n] [--shard-threads n] [--flush-tuples n]\n"
    "         [--queue-capacity n] [--journal-out file]\n";
constexpr const char* kHelp =
    "scatters the union feed across --shards engines (contiguous server\n"
    "ranges; each shard runs --shard-threads estimation threads and takes\n"
    "batches of --flush-tuples through a queue of --queue-capacity batches)\n"
    "and prints one line per merged epoch plus the final landscape,\n"
    "byte-identical to botmeter_stream at every shard count. Checkpoints are\n"
    "botmeter.cluster_checkpoint.v1. --metrics-out writes a\n"
    "botmeter.run_report.v1 document.\n"
    "GET /metrics carries per-shard cluster.* series, GET /healthz the\n"
    "health folded over shards and the merge frontier (?format=json for\n"
    "botmeter.cluster_health.v1), GET /debug/lag the per-shard lag and\n"
    "straggler table (botmeter.lag.v1). --journal-out writes the event\n"
    "journal after the run, and whenever a shard or the cluster turns\n"
    "unhealthy.\n";

int run(const botmeter::tools::CliArgs& args) {
  using namespace botmeter;
  const tools::MeterOptions options = tools::meter_options(args);
  cluster::ClusterConfig config;
  tools::apply_live_options(args, options, config);
  const std::size_t shard_count =
      static_cast<std::size_t>(args.int_or("--shards", 1));
  config.router = cluster::ShardRouter::by_range(options.server_count, shard_count);
  config.shard_worker_threads =
      static_cast<std::size_t>(args.int_or("--shard-threads", 1));
  config.flush_tuples =
      static_cast<std::size_t>(args.int_or("--flush-tuples", 8192));
  config.queue_capacity =
      static_cast<std::size_t>(args.int_or("--queue-capacity", 64));

  const bool live = args.value("--listen").has_value();
  tools::RunSinks sinks(args, live, /*spans=*/false, config.meter);
  // Merged landscape time-series: one row per merged epoch, recorded by
  // the runtime, queried live through the exporter and/or written after
  // the run.
  config.history = sinks.history.get();
  const tools::Stopwatch wall;
  if (live) {
    // Per-shard monitors + frontier-lag fold; stamps the cluster state
    // onto merged history rows.
    config.health = stream::StreamHealthConfig{};
  }

  // Pipeline observability: the lag tracker backs /debug/lag and the lag
  // fold in /healthz?format=json; the flight-recorder journal backs
  // /events and the unhealthy auto-dump.
  const auto journal_path = args.value("--journal-out");
  std::optional<obs::LagTracker> lag;
  std::optional<obs::EventJournal> journal;
  if (live || journal_path) {
    lag.emplace(shard_count);
    config.lag = &*lag;
    journal.emplace();
    if (journal_path) journal->set_dump_path(*journal_path);
    config.journal = &*journal;
  }

  cluster::ClusterRuntime runtime(std::move(config));

  std::unique_ptr<obs::HttpExporter> exporter;
  if (live) {
    tools::Routes routes =
        tools::landscape_routes(*sinks.history, *journal,
                                options.meter.dga.name);
    routes["/metrics"] = [&sinks](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.content_type = obs::kPrometheusContentType;
      response.body = obs::expose_prometheus(sinks.metrics.snapshot());
      return response;
    };
    routes["/healthz"] = [&runtime](const obs::HttpRequest& request) {
      obs::HttpResponse response;
      response.status =
          runtime.cluster_state() == stream::HealthState::kUnhealthy ? 503
                                                                     : 200;
      if (request.param("format").value_or("") == "json") {
        response.content_type = "application/json; charset=utf-8";
        response.body = json::write(runtime.health_json()) + "\n";
      } else {
        response.body =
            std::string(stream::health_state_name(runtime.cluster_state())) +
            "\n";
      }
      return response;
    };
    routes["/debug/lag"] = [&lag](const obs::HttpRequest&) {
      return tools::json_response(lag->to_json());
    };
    exporter = tools::start_exporter(args, std::move(routes));
  }

  if (auto checkpoint_path = args.value("--checkpoint-in")) {
    runtime.restore(json::parse(tools::read_file(*checkpoint_path)));
    std::fprintf(stderr, "resumed from %s: merge frontier at epoch %lld\n",
                 checkpoint_path->c_str(),
                 static_cast<long long>(runtime.merge_frontier()));
  }

  // One line per *merged* epoch, printed from the ingest thread as the
  // frontier advances (merged rows are immutable once published).
  std::int64_t printed = runtime.merge_frontier();
  const auto print_merged = [&runtime, &printed] {
    for (; printed < runtime.merge_frontier(); ++printed) {
      const cluster::MergedEpoch merged = runtime.merger().merged_epoch(printed);
      double total = 0.0;
      for (const estimators::EpochCell& cell : merged.cells) {
        total += cell.estimate.value;
      }
      std::ostringstream line;
      line << "epoch " << merged.epoch << ": total=" << total;
      for (std::size_t s = 0; s < merged.cells.size(); ++s) {
        line << " server-" << s << "=" << merged.cells[s].estimate.value;
      }
      std::printf("%s\n", line.str().c_str());
      std::fflush(stdout);
    }
  };

  // Ingest: the union feed is scattered across shards by the router.
  // Health samples ride the ingest thread once per trace block or every
  // 16384 --simulate tuples (they enqueue one sample item per shard);
  // merged-epoch lines print as the frontier moves.
  std::uint64_t ingest_tick = 0;
  tools::FeedSinks feed;
  feed.matcher = &runtime.meter().matcher();
  feed.resolved = [&](const dns::LookupColumns& block) {
    runtime.ingest_resolved(block);
    if (live) (void)runtime.sample_health(wall.ms());
    print_merged();
  };
  feed.tuple = [&](const dns::ForwardedLookup& lookup) {
    runtime.ingest(lookup);
    if ((++ingest_tick & 0x3FFF) == 0) {
      if (live) (void)runtime.sample_health(wall.ms());
      print_merged();
    }
  };
  const tools::Stopwatch ingest_clock;
  tools::run_feed(args, options, feed);
  runtime.flush();
  if (live) (void)runtime.sample_health(wall.ms());
  const double ingest_ms = ingest_clock.ms();

  if (auto path = args.value("--checkpoint-out")) {
    tools::write_json_file(*path, runtime.checkpoint(), "cluster checkpoint");
  }

  if (!args.flag("--no-final")) {
    const core::LandscapeReport report = runtime.finish();
    print_merged();
    tools::print_landscape(args, report, "# estimator: " + report.estimator_name);
    if (live) (void)runtime.sample_health(wall.ms());
  }

  // Per-shard counters: exact after the final close (every queue drained);
  // with --no-final they are the point-in-time mirrors of applied batches.
  std::uint64_t ingested = 0, matched = 0, unmatched = 0, late = 0;
  for (std::size_t i = 0; i < runtime.shard_count(); ++i) {
    const cluster::ShardStats stats = runtime.shard_stats(i);
    ingested += stats.ingested;
    matched += stats.matched;
    unmatched += stats.unmatched;
    late += stats.late_dropped;
  }
  const double tuples_per_sec =
      ingest_ms > 0.0 ? static_cast<double>(ingested) / (ingest_ms / 1000.0)
                      : 0.0;
  std::fprintf(stderr,
               "%zu shards ingested %llu tuples (%.0f/s): %llu matched, "
               "%llu unmatched, %llu late-dropped; merge frontier %lld\n",
               runtime.shard_count(),
               static_cast<unsigned long long>(ingested), tuples_per_sec,
               static_cast<unsigned long long>(matched),
               static_cast<unsigned long long>(unmatched),
               static_cast<unsigned long long>(late),
               static_cast<long long>(runtime.merge_frontier()));

  if (journal_path) {
    journal->dump(*journal_path);
    std::fprintf(stderr, "event journal written to %s\n",
                 journal_path->c_str());
  }

  const cluster::ClusterConfig& cfg = runtime.config();
  json::Object echo = tools::config_echo(options);
  echo.emplace("shards", json::Value(static_cast<double>(cfg.router.shard_count())));
  echo.emplace("shard_worker_threads",
               json::Value(static_cast<double>(cfg.shard_worker_threads)));
  echo.emplace("flush_tuples", json::Value(static_cast<double>(cfg.flush_tuples)));
  echo.emplace("queue_capacity",
               json::Value(static_cast<double>(cfg.queue_capacity)));
  echo.emplace("source", json::Value(std::string(
                             args.flag("--simulate") ? "simulate" : "trace")));
  echo.emplace("ingested", json::Value(static_cast<double>(ingested)));
  sinks.write(args, "botmeter_cluster", std::move(echo));

  if (exporter) {
    tools::linger_and_stop(args, *exporter,
                           [&] { (void)runtime.sample_health(wall.ms()); });
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return botmeter::tools::run_tool(
      argc, argv,
      {"botmeter_cluster", /*live=*/true,
       {"--shards", "--shard-threads", "--flush-tuples", "--queue-capacity",
        "--journal-out"},
       {}, kSynopsis, kHelp},
      run);
}
