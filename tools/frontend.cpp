#include "frontend.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "botnet/simulator.hpp"
#include "dga/config_io.hpp"
#include "dga/families.hpp"
#include "common/parallel.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"
#include "viz/landscape.hpp"

namespace botmeter::tools {
namespace {

// --help text for the flags parsed here, so it is written once for all
// three tools.
constexpr const char* kMeterUsage =
    "(--family <name> | --config <file.json>)\n"
    "         [--estimator timing|poisson|bernoulli|...] [--servers n]\n"
    "         [--epochs n] [--first-epoch e] [--neg-ttl-min m]\n"
    "         [--miss-rate x] [--assume-miss x] [--trace file] [--binary]\n"
    "         [--viz] [--metrics-out file] [--history-out file]\n"
    "         [--history-retain n]\n";
constexpr const char* kLiveUsage =
    "         [--lateness-ms l] [--compact-state] [--compact-spill n]\n"
    "         [--compact-kmv-k k]\n"
    "         [--simulate --bots N [--seed s] [--granularity-ms g]]\n"
    "         [--checkpoint-in file] [--checkpoint-out file] [--no-final]\n"
    "         [--listen port] [--listen-port-file file] [--linger-ms n]\n";
constexpr const char* kMeterHelp =
    "The border trace comes from --trace or stdin; binary columnar traces\n"
    "(botmeter.trace_block.v1, see botmeter_trace_convert) are detected in\n"
    "--trace files, and --binary forces that codec on stdin.\n"
    "--history-out writes the retained landscape series\n"
    "(botmeter.landscape_series.v1) after the run, the same bytes from every\n"
    "tool on exact state; --history-retain bounds its full-resolution ring\n"
    "(default 4096 epochs).\n";
constexpr const char* kLiveHelp =
    "--simulate generates the feed instead of reading one.\n"
    "--compact-state bounds memory: open buckets past --compact-spill matched\n"
    "lookups (default 8192) fold into sketch cells (KMV size --compact-kmv-k,\n"
    "default 1024); saturated cells print a \"~\"-flagged, widened interval.\n"
    "--checkpoint-out writes a checkpoint after ingest, before the final\n"
    "close; --checkpoint-in resumes from one; --no-final skips the final\n"
    "close when more of the feed is still to come.\n"
    "--listen serves GET /landscape, /landscape/history?server=&from=&to=,\n"
    "/landscape/summary (botmeter.landscape_series.v1) and /events?from=&shard=\n"
    "(botmeter.events.v1) next to the tool's /metrics and /healthz; port 0\n"
    "binds an ephemeral port, --listen-port-file writes the bound port and\n"
    "--linger-ms keeps serving that long after the run.\n";

obs::HttpResponse bad_query(const std::exception& e) {
  obs::HttpResponse response;
  response.status = 400;
  response.body = std::string("bad query: ") + e.what() + "\n";
  return response;
}

}  // namespace

obs::HttpResponse json_response(const json::Value& value) {
  obs::HttpResponse response;
  response.content_type = "application/json; charset=utf-8";
  response.body = json::write(value) + "\n";
  return response;
}

int run_tool(int argc, char** argv, ToolSpec spec,
             const std::function<int(const CliArgs&)>& body) {
  std::string usage = std::string("usage: ") + spec.name + " " + kMeterUsage +
                      (spec.live ? kLiveUsage : "") + spec.synopsis + spec.help +
                      kMeterHelp + (spec.live ? kLiveHelp : "");
  spec.value_flags.insert({"--family", "--config", "--estimator", "--servers",
                           "--epochs", "--first-epoch", "--neg-ttl-min",
                           "--miss-rate", "--assume-miss", "--trace",
                           "--metrics-out", "--history-out", "--history-retain"});
  spec.bool_flags.insert({"--help", "--viz", "--binary"});
  if (spec.live) {
    spec.value_flags.insert({"--lateness-ms", "--compact-spill",
                             "--compact-kmv-k", "--bots", "--seed",
                             "--granularity-ms", "--checkpoint-in",
                             "--checkpoint-out", "--listen",
                             "--listen-port-file", "--linger-ms"});
    spec.bool_flags.insert({"--simulate", "--no-final", "--compact-state"});
  }
  try {
    const CliArgs args(argc, argv, std::move(spec.value_flags),
                       std::move(spec.bool_flags));
    if (args.flag("--help")) {
      std::fputs(usage.c_str(), stdout);
      return 0;
    }
    set_this_thread_label("main");
    return body(args);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), usage.c_str());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

MeterOptions meter_options(const CliArgs& args) {
  const auto family = args.value("--family");
  const auto config_path = args.value("--config");
  if (family.has_value() == config_path.has_value()) {
    throw ConfigError("exactly one of --family / --config is required");
  }
  MeterOptions options;
  core::BotMeterConfig& meter = options.meter;
  meter.dga = family ? dga::family_config(*family)
                     : dga::config_from_json_text(read_file(*config_path));
  meter.estimator = args.value_or("--estimator", "");
  meter.ttl.negative = minutes(args.int_or("--neg-ttl-min", 120));
  meter.detection_miss_rate = args.double_or("--miss-rate", 0.0);
  if (args.value("--assume-miss")) {
    meter.assumed_miss_rate = args.double_or("--assume-miss", 0.0);
  }
  options.first_epoch = args.int_or(
      "--first-epoch",
      meter.dga.taxonomy.pool == dga::PoolModel::kSlidingWindow ? 40 : 0);
  options.epoch_count = args.int_or("--epochs", 1);
  options.server_count = static_cast<std::size_t>(args.int_or("--servers", 1));
  return options;
}

RunSinks::RunSinks(const CliArgs& args, bool live, bool spans,
                   core::BotMeterConfig& meter)
    : spans_(spans) {
  const bool report = args.value("--metrics-out").has_value();
  if (report || live) meter.metrics = &metrics;
  if (spans && (report || args.flag("--trace-timing") ||
                args.value("--trace-out"))) {
    meter.trace = &trace;
  }
  if (live || args.value("--history-out")) {
    obs::LandscapeHistoryConfig config;
    config.retain_recent = static_cast<std::size_t>(args.int_or(
        "--history-retain", static_cast<std::int64_t>(config.retain_recent)));
    history = std::make_unique<obs::LandscapeHistory>(config);
  }
}

void RunSinks::write(const CliArgs& args, const std::string& tool,
                     json::Object config) const {
  if (auto path = args.value("--history-out")) {
    write_json_file(*path, history->to_json(), "landscape history");
  }
  if (auto path = args.value("--metrics-out")) {
    obs::RunReport report;
    report.tool = tool;
    report.config = json::Value(std::move(config));
    report.metrics = &metrics;
    report.trace = spans_ ? &trace : nullptr;
    obs::write_report_file(report, *path);
  }
  if (args.flag("--trace-timing")) {
    std::fputs(obs::format_phase_table(trace).c_str(), stderr);
  }
  if (auto path = args.value("--trace-out")) {
    obs::write_chrome_trace_file(trace, *path);
    std::fprintf(stderr, "span trace written to %s (open in Perfetto)\n",
                 path->c_str());
  }
}

void write_json_file(const std::string& path, const json::Value& value,
                     const char* what) {
  std::ofstream file(path);
  if (!file) throw DataError("cannot open " + path);
  file << json::write_pretty(value);
  if (!file.flush()) {
    throw DataError(std::string(what) + ": failed writing " + path);
  }
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw DataError("cannot open " + path);
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

void read_trace_input(const CliArgs& args,
                      const std::function<void(std::istream&, bool binary)>& read) {
  if (auto path = args.value("--trace")) {
    std::ifstream file(*path, std::ios::binary);
    if (!file) throw DataError("cannot open " + *path);
    read(file, args.flag("--binary") || trace::sniff_block_file(file));
  } else {
    read(std::cin, args.flag("--binary"));
  }
}

void run_feed(const CliArgs& args, const MeterOptions& options,
              const FeedSinks& sinks) {
  if (!args.flag("--simulate")) {
    const detect::DomainMatcher& matcher = *sinks.matcher;
    std::vector<detect::DomainMatcher::Resolved> resolved;  // one text block
    std::vector<detect::DomainMatcher::Resolved> remap;     // binary table
    std::vector<std::uint32_t> entries;
    const auto text_block = [&](const trace::TextColumns& text) {
      resolved.resize(text.size());
      {
        obs::ScopedTimer span(sinks.trace, "feed.resolve_many");
        matcher.resolve_many(text.domain, resolved);
      }
      entries.resize(text.size());
      for (std::size_t i = 0; i < text.size(); ++i) {
        entries[i] = resolved[i].entry();
      }
      sinks.resolved(dns::LookupColumns{text.t_ms, text.server, entries});
    };
    // The reader has checked every id against its table.
    const auto binary_block = [&](const dns::LookupColumns& block,
                                  std::span<const std::string_view> table) {
      if (table.size() > remap.size()) {
        obs::ScopedTimer span(sinks.trace, "feed.resolve_many");
        matcher.resolve_tail(table, remap);
      }
      entries.resize(block.size());
      for (std::size_t i = 0; i < block.size(); ++i) {
        entries[i] = remap[block.domain[i]].entry();
      }
      sinks.resolved(dns::LookupColumns{block.t_ms, block.server, entries});
    };
    read_trace_input(args, [&](std::istream& in, bool binary) {
      (void)(binary ? trace::for_each_block(in, binary_block)
                    : trace::for_each_text_block(in, text_block));
    });
    return;
  }
  const std::int64_t bots = args.int_or("--bots", 0);
  if (bots <= 0) throw ConfigError("--simulate requires --bots > 0");
  botnet::SimulationConfig sim;
  sim.dga = options.meter.dga;
  sim.bot_count = static_cast<std::uint32_t>(bots);
  sim.server_count = options.server_count;
  sim.ttl = options.meter.ttl;
  sim.first_epoch = options.first_epoch;
  sim.epoch_count = options.epoch_count;
  sim.seed = static_cast<std::uint64_t>(args.int_or("--seed", 1));
  sim.timestamp_granularity = milliseconds(args.int_or("--granularity-ms", 100));
  sim.record_raw = false;
  // The generator's per-chunk spans land on the worker tracks of the same
  // Perfetto trace, and its counters appear in the live /metrics page.
  sim.worker_threads = sinks.worker_threads;
  sim.metrics = sinks.metrics;
  sim.trace = sinks.trace;
  sim.observable_sink = sinks.tuple;
  (void)botnet::simulate(sim);
}

Routes landscape_routes(const obs::LandscapeHistory& history,
                        const obs::EventJournal& journal,
                        const std::string& family) {
  Routes routes;
  routes["/landscape"] = [&history](const obs::HttpRequest&) {
    return json_response(history.latest_json());
  };
  routes["/landscape/history"] = [&history,
                                  family](const obs::HttpRequest& request) {
    try {
      if (const auto f = request.param("family");
          f && !f->empty() && *f != family) {
        obs::HttpResponse response;
        response.status = 404;
        response.body =
            "unknown family '" + *f + "'; this run is " + family + "\n";
        return response;
      }
      std::optional<std::uint32_t> server;
      if (const auto s = request.param("server"); s && !s->empty()) {
        server = static_cast<std::uint32_t>(std::stoul(*s));
      }
      std::int64_t from = std::numeric_limits<std::int64_t>::min();
      std::int64_t to = std::numeric_limits<std::int64_t>::max();
      if (const auto f = request.param("from"); f && !f->empty()) {
        from = std::stoll(*f);
      }
      if (const auto t = request.param("to"); t && !t->empty()) {
        to = std::stoll(*t);
      }
      return json_response(history.window_json(server, from, to));
    } catch (const std::exception& e) {
      return bad_query(e);
    }
  };
  routes["/landscape/summary"] = [&history](const obs::HttpRequest&) {
    return json_response(history.summary_json());
  };
  routes["/events"] = [&journal](const obs::HttpRequest& request) {
    try {
      std::uint64_t from = 0;
      if (const auto f = request.param("from"); f && !f->empty()) {
        from = std::stoull(*f);
      }
      std::optional<std::int32_t> shard;
      if (const auto s = request.param("shard"); s && !s->empty()) {
        shard = static_cast<std::int32_t>(std::stol(*s));
      }
      return json_response(journal.to_json(from, shard));
    } catch (const std::exception& e) {
      return bad_query(e);
    }
  };
  return routes;
}

std::unique_ptr<obs::HttpExporter> start_exporter(const CliArgs& args,
                                                  Routes routes) {
  obs::HttpExporterConfig http;
  http.port = static_cast<std::uint16_t>(args.int_or("--listen", 0));
  auto exporter = std::make_unique<obs::HttpExporter>(http, std::move(routes));
  std::fprintf(stderr, "telemetry: listening on 127.0.0.1:%u\n",
               exporter->port());
  if (auto port_file = args.value("--listen-port-file")) {
    std::ofstream file(*port_file);
    if (!file) throw DataError("cannot open " + *port_file);
    file << exporter->port() << '\n';
    if (!file.flush()) throw DataError("failed writing " + *port_file);
  }
  return exporter;
}

void linger_and_stop(const CliArgs& args, obs::HttpExporter& exporter,
                     const std::function<void()>& sample) {
  // Keep the scrape endpoint up (with fresh samples) so operators and CI can
  // inspect the terminal state of a short run.
  if (args.int_or("--linger-ms", 0) > 0) {
    const Stopwatch clock;
    const double linger_ms = args.double_or("--linger-ms", 0.0);
    while (clock.ms() < linger_ms) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  exporter.stop();
}

void print_landscape(const CliArgs& args, const core::LandscapeReport& report,
                     const std::string& header) {
  if (args.flag("--viz")) {
    std::fputs(viz::render_landscape(report).c_str(), stdout);
    return;
  }
  std::printf("%s\n", header.c_str());
  std::printf("%-10s %12s %18s %16s\n", "server", "population", "90%-CI",
              "matched_lookups");
  for (const core::ServerEstimate& s : report.servers) {
    char ci[32] = "-";
    if (s.interval90) {
      std::snprintf(ci, sizeof(ci), "%s[%.1f, %.1f]", s.approximate ? "~" : "",
                    s.interval90->first, s.interval90->second);
    }
    std::printf("server-%-3u %12.1f %18s %16llu\n", s.server.value(),
                s.population, ci,
                static_cast<unsigned long long>(s.matched_lookups));
  }
  std::printf("total: %.1f\n", report.total_population());
}

json::Object config_echo(const MeterOptions& options) {
  using json::Value;
  const core::BotMeterConfig& meter = options.meter;
  json::Object o;
  o.emplace("family", Value(meter.dga.name));
  o.emplace("estimator", Value(meter.estimator.empty()
                                   ? std::string("(recommended)")
                                   : meter.estimator));
  o.emplace("servers", Value(static_cast<double>(options.server_count)));
  o.emplace("epochs", Value(static_cast<double>(options.epoch_count)));
  o.emplace("first_epoch", Value(static_cast<double>(options.first_epoch)));
  o.emplace("detection_miss_rate", Value(meter.detection_miss_rate));
  o.emplace("neg_ttl_ms", Value(static_cast<double>(meter.ttl.negative.millis())));
  return o;
}

}  // namespace botmeter::tools
