// bench_layers — the traced per-layer run of the BotMeter benchmark.
//
// Replays one workload trace through every layer's *public* functions and
// keeps a span in memory around each call (name, start, end, parent, work
// count). No timer is added inside the library: every clock read is here.
// Calls made once per tuple (match_one, StreamEngine::ingest,
// ClusterRuntime::ingest) are timed as one span per run of consecutive calls,
// so the clock is not read per tuple.
//
// Some calls contain a lower layer's work (an epoch close runs the
// estimators; ingest resolves domains). The driver measures that lower layer
// separately on the same input and records the amount on the enclosing span
// as `contains: {layer: ms}`; the ledger books it to that layer and leaves
// the rest as the enclosing call's self time.
//
// Usage:
//   bench_layers --family <name> --servers n --epochs n --shards k
//                --trace <file> --spans-out <file.json>
//                [--compact-state 1]
// Writes Chrome trace_event JSON (open in Perfetto); the counters the ledger
// needs ride under "otherData".
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/cluster_runtime.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/botmeter.hpp"
#include "detect/detection_window.hpp"
#include "detect/matcher.hpp"
#include "dga/families.hpp"
#include "dga/pool.hpp"
#include "estimators/compact_observation.hpp"
#include "estimators/context.hpp"
#include "obs/lag_tracker.hpp"
#include "obs/landscape_history.hpp"
#include "stream/stream_engine.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"

namespace {

using namespace botmeter;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// In-memory span ledger.

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  double work = 0.0;
  std::map<std::string, double> contains;  // layer -> ms measured separately
};

class Ledger {
 public:
  class Scope {
   public:
    Scope(Ledger& ledger, int id) : ledger_(ledger), id_(id) {}
    ~Scope() { ledger_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Ledger& ledger_;
    int id_;
  };

  [[nodiscard]] Scope span(std::string name, double work = 0.0) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), {}, {}, stack_.empty() ? -1 : stack_.back(),
                          work, {}});
    stack_.push_back(id);
    spans_.back().start = Clock::now();
    return Scope(*this, id);
  }

  /// Time one call as a span; returns its duration in ms.
  template <typename F>
  double time(std::string name, double work, F&& call, int* id_out = nullptr) {
    const Scope scope = span(std::move(name), work);
    call();
    spans_[static_cast<std::size_t>(scope.id())].end = Clock::now();
    if (id_out != nullptr) *id_out = scope.id();
    return ms(scope.id());
  }

  /// End a span before its scope does (the root, so the trace can be written).
  void end(int id) { spans_.at(static_cast<std::size_t>(id)).end = Clock::now(); }

  void add_contains(int id, const std::string& layer, double value_ms) {
    spans_.at(static_cast<std::size_t>(id)).contains[layer] += value_ms;
  }

  [[nodiscard]] double ms(int id) const {
    const Span& s = spans_.at(static_cast<std::size_t>(id));
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  }

  [[nodiscard]] json::Value chrome_trace(json::Object other) const {
    json::Array events;
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto us = [origin](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
      };
      json::Object contains;
      for (const auto& [layer, value] : s.contains) contains.emplace(layer, json::Value(value));
      json::Object args;
      args.emplace("id", json::Value(static_cast<double>(i)));
      args.emplace("parent", json::Value(static_cast<double>(s.parent)));
      args.emplace("work", json::Value(s.work));
      args.emplace("contains", json::Value(std::move(contains)));
      json::Object event;
      event.emplace("name", json::Value(s.name));
      event.emplace("cat", json::Value(s.name.substr(0, s.name.find('.'))));
      event.emplace("ph", json::Value(std::string("X")));
      event.emplace("ts", json::Value(us(s.start)));
      event.emplace("dur", json::Value(us(s.end) - us(s.start)));
      event.emplace("pid", json::Value(1.0));
      event.emplace("tid", json::Value(1.0));
      event.emplace("args", json::Value(std::move(args)));
      events.push_back(json::Value(std::move(event)));
    }
    json::Object doc;
    doc.emplace("traceEvents", json::Value(std::move(events)));
    doc.emplace("displayTimeUnit", json::Value(std::string("ms")));
    doc.emplace("otherData", json::Value(std::move(other)));
    return json::Value(std::move(doc));
  }

 private:
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    if (s.end == Clock::time_point{}) s.end = Clock::now();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Inputs.

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  if (argc % 2 == 0) throw std::runtime_error("flags come in --name value pairs");
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  return args;
}

const std::string& need(const std::map<std::string, std::string>& args,
                        const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::runtime_error("missing " + key);
  return it->second;
}

/// A decoded binary block, owned so that later passes never re-decode.
struct OwnedBlock {
  std::vector<std::int64_t> t_ms;
  std::vector<std::uint32_t> server;
  std::vector<std::uint32_t> domain;
  std::size_t table_size = 0;  // reader's string table size after this block

  [[nodiscard]] dns::LookupColumns columns(std::size_t from, std::size_t to) const {
    return dns::LookupColumns{std::span(t_ms).subspan(from, to - from),
                              std::span(server).subspan(from, to - from),
                              std::span(domain).subspan(from, to - from)};
  }
};

/// The whole trace in memory, in the codec the tools would ingest it with.
struct Workload {
  bool binary = false;
  std::vector<dns::ForwardedLookup> lookups;  // every tuple, both codecs
  std::ifstream block_file;                   // keeps the reader's source open
  std::unique_ptr<trace::BlockReader> reader; // owns the string table views
  std::vector<OwnedBlock> blocks;

  [[nodiscard]] std::span<const std::string_view> table() const {
    return reader->domains();
  }
};

void load(Workload& w, const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error("cannot open " + path);
  w.binary = trace::sniff_block_file(probe);
  if (!w.binary) {
    w.lookups = trace::read_observable(probe);
    return;
  }
  w.lookups = trace::read_blocks(probe);
  w.block_file.open(path, std::ios::binary);
  w.reader = std::make_unique<trace::BlockReader>(w.block_file);
  while (const auto cols = w.reader->next()) {
    OwnedBlock block;
    block.t_ms.assign(cols->t_ms.begin(), cols->t_ms.end());
    block.server.assign(cols->server.begin(), cols->server.end());
    block.domain.assign(cols->domain.begin(), cols->domain.end());
    block.table_size = w.reader->domains().size();
    w.blocks.push_back(std::move(block));
  }
}

// ---------------------------------------------------------------------------

struct Shape {
  core::BotMeterConfig meter;
  std::size_t servers = 1;
  std::int64_t first_epoch = 0;
  std::int64_t epochs = 1;
  std::size_t shards = 1;
  bool compact = false;
  std::size_t spill = stream::StreamEngineConfig{}.compact_spill_threshold;  // the tools' default
};

/// Where StreamEngine closes epoch e under the default lateness (one epoch).
TimePoint close_boundary(const Shape& shape, std::int64_t epoch) {
  const std::int64_t len = shape.meter.dga.epoch.millis();
  return TimePoint{(epoch + 1) * len + len};
}

obs::LandscapeEpochRecord history_row(const core::BotMeter& meter, std::int64_t epoch,
                                      std::span<const estimators::EpochCell> cells) {
  obs::LandscapeEpochRecord row;
  row.epoch = epoch;
  row.family = meter.config().dga.name;
  row.estimator = std::string(meter.active_estimator().name());
  for (const estimators::EpochCell& cell : cells) {
    obs::LandscapeCell c;
    c.population = cell.estimate.value;
    c.interval90 = cell.estimate.interval;
    c.matched = cell.matched;
    c.approximate = cell.estimate.approximate;
    c.sketch_rse = cell.estimate.sketch_rse;
    row.servers.push_back(std::move(c));
  }
  return row;
}

json::Value num(double v) { return json::Value(v); }

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    Shape shape;
    shape.meter.dga = dga::family_config(need(args, "--family"));
    shape.servers = std::stoul(need(args, "--servers"));
    shape.epochs = std::stoll(need(args, "--epochs"));
    shape.shards = std::stoul(need(args, "--shards"));
    shape.compact = args.contains("--compact-state") && need(args, "--compact-state") == "1";
    // The tools' default first epoch.
    shape.first_epoch = shape.meter.dga.taxonomy.pool == dga::PoolModel::kSlidingWindow ? 40 : 0;
    const std::int64_t first = shape.first_epoch;
    const std::int64_t last = first + shape.epochs;  // exclusive

    Workload w;
    load(w, need(args, "--trace"));
    const std::size_t tuples = w.lookups.size();
    if (tuples == 0) throw std::runtime_error("empty trace");

    // Where each epoch's close falls in the tuple order: the tools close an
    // epoch when the first tuple at or past its boundary arrives.
    std::vector<std::size_t> cut;  // cut[k]: first tuple index of segment k+1
    {
      std::size_t i = 0;
      for (std::int64_t e = first; e < last; ++e) {
        const std::int64_t b = close_boundary(shape, e).millis();
        while (i < tuples && w.lookups[i].timestamp.millis() < b) ++i;
        cut.push_back(i);
      }
    }

    json::Object other;
    Ledger ledger;
    const Ledger::Scope root = ledger.span("bench.run");

    // --- setup: dga pools, detection index, BotMeter preparation ----------
    double pool_ms = 0.0, index_ms = 0.0;
    {
      const auto phase = ledger.span("bench.setup");
      std::unique_ptr<dga::QueryPoolModel> model = dga::make_pool_model(shape.meter.dga);
      detect::DomainMatcher matcher(shape.meter.dga.epoch);
      for (std::int64_t e = first; e < last; ++e) {
        const dga::EpochPool* pool = nullptr;
        pool_ms += ledger.time("dga.epoch_pool", 1, [&] { pool = &model->epoch_pool(e); });
        Rng rng{stream_seed(shape.meter.seed, static_cast<std::uint64_t>(e))};
        const detect::DetectionWindow window =
            detect::make_detection_window(*pool, shape.meter.detection_miss_rate, rng);
        index_ms += ledger.time("detect.add_epoch", 1, [&] { matcher.add_epoch(*pool, window); });
      }
    }
    core::BotMeter meter(shape.meter);
    int prepare_id = -1;
    const double prepare_ms = ledger.time(
        "core.prepare_epochs", static_cast<double>(shape.epochs),
        [&] { meter.prepare_epochs(first, shape.epochs); }, &prepare_id);
    // BotMeter preparation generates the pools and builds the index itself.
    const auto book_prepare = [&](int id) {
      const double dga_ms = std::min(pool_ms, ledger.ms(id));
      const double detect_ms = std::min(index_ms, ledger.ms(id) - dga_ms);
      ledger.add_contains(id, "dga", dga_ms);
      ledger.add_contains(id, "detect", detect_ms);
      if (id != prepare_id) {
        ledger.add_contains(id, "core", std::clamp(prepare_ms - pool_ms - index_ms, 0.0,
                                                   ledger.ms(id) - dga_ms - detect_ms));
      }
    };
    book_prepare(prepare_id);
    const detect::DomainMatcher& matcher = meter.matcher();

    // --- trace: decode the file again, sink does nothing -----------------
    {
      const auto phase = ledger.span("bench.decode");
      std::ifstream file(need(args, "--trace"), std::ios::binary);
      std::size_t n = 0;
      if (w.binary) {
        trace::BlockReader reader(file);
        ledger.time("trace.decode", static_cast<double>(tuples), [&] {
          while (const auto cols = reader.next()) n += cols->size();
        });
      } else {
        ledger.time("trace.decode", static_cast<double>(tuples), [&] {
          n = trace::for_each_observable(file, [](const dns::ForwardedLookup&) {});
        });
      }
      if (n != tuples) throw std::runtime_error("decode pass tuple count mismatch");
    }

    // --- detect: resolution on the path the tools take for this codec -----
    // Binary: resolve_many over each block's newly interned domains. Text:
    // match_one per tuple. Timed per segment so ingest spans can subtract it.
    std::vector<double> resolve_seg_ms(cut.size() + 1, 0.0);
    {
      const auto phase = ledger.span("bench.resolve");
      if (w.binary) {
        std::vector<detect::DomainMatcher::Resolved> out;
        std::size_t seen = 0, row = 0, seg = 0;
        for (const OwnedBlock& block : w.blocks) {
          while (seg < cut.size() && cut[seg] <= row) ++seg;
          const auto fresh = w.table().subspan(seen, block.table_size - seen);
          out.assign(fresh.size(), {});
          resolve_seg_ms[seg] += ledger.time("detect.resolve", static_cast<double>(block.t_ms.size()),
                                             [&] { matcher.resolve_many(fresh, out); });
          seen = block.table_size;
          row += block.t_ms.size();
        }
      } else {
        std::size_t begin = 0;
        for (std::size_t seg = 0; seg <= cut.size(); ++seg) {
          const std::size_t end = seg < cut.size() ? cut[seg] : tuples;
          resolve_seg_ms[seg] += ledger.time("detect.resolve", static_cast<double>(end - begin), [&] {
            for (std::size_t i = begin; i < end; ++i) {
              (void)matcher.match_one(w.lookups[i]);
            }
          });
          begin = end;
        }
      }
    }

    // --- detect + core + estimators: per epoch row --------------------------
    detect::MatchStats match_stats;
    detect::MatchedStreams streams;
    ledger.time("detect.match", static_cast<double>(tuples),
                [&] { streams = matcher.match(w.lookups, &match_stats); });

    const estimators::Estimator& estimator = meter.active_estimator();
    estimators::CompactObservationConfig compact_config;
    std::map<std::int64_t, double> row_ms;       // core.estimate_epoch_row per epoch
    std::map<std::int64_t, double> row_est_ms;   // estimators inside that row
    std::uint64_t memo_hits = 0, memo_misses = 0, exact_cells = 0, spilled_cells = 0;
    {
      const auto phase = ledger.span("bench.estimate");
      for (std::int64_t e = first; e < last; ++e) {
        std::vector<std::vector<detect::MatchedLookup>> buckets(shape.servers);
        for (std::size_t s = 0; s < shape.servers; ++s) {
          const auto it = streams.find(detect::StreamKey{dns::ServerId{static_cast<std::uint32_t>(s)}, e});
          if (it != streams.end()) buckets[s] = it->second;
          std::sort(buckets[s].begin(), buckets[s].end(), detect::matched_lookup_less);
        }
        std::vector<std::unique_ptr<estimators::CompactCell>> compact(shape.compact ? shape.servers : 0);

        estimators::EstimationContext point_ctx;
        estimators::EstimationContext interval_ctx;
        double est_ms = 0.0;
        for (std::size_t s = 0; s < shape.servers; ++s) {
          if (shape.compact && buckets[s].size() >= shape.spill) {
            compact[s] = std::make_unique<estimators::CompactCell>(
                meter.compact_spec_for_epoch(e, compact_config));
            compact[s]->add_all(buckets[s]);
            estimators::CompactObservation obs = meter.make_compact_observation(e, *compact[s]);
            obs.context = &interval_ctx;
            est_ms += ledger.time("estimators.compact_estimate", 1,
                                  [&] { (void)estimator.estimate_with_interval(obs, 0.9); });
            ++spilled_cells;
            continue;
          }
          estimators::EpochObservation obs = meter.make_observation(e, buckets[s]);
          obs.context = &point_ctx;
          ledger.time("estimators.estimate", 1, [&] { (void)estimator.estimate(obs); });
          obs.context = &interval_ctx;
          est_ms += ledger.time("estimators.estimate_with_interval", 1,
                                [&] { (void)estimator.estimate_with_interval(obs, 0.9); });
          ++exact_cells;
        }
        memo_hits += interval_ctx.memo_hits();
        memo_misses += interval_ctx.memo_misses();

        if (shape.compact) {
          // The engine drops a spilled bucket's lookups; mirror it.
          for (std::size_t s = 0; s < shape.servers; ++s) {
            if (compact[s] != nullptr) buckets[s].clear();
          }
        }
        int id = -1;
        row_ms[e] = ledger.time(
            "core.estimate_epoch_row", static_cast<double>(shape.servers),
            [&] {
              (void)meter.estimate_epoch_row(e, std::move(buckets), std::move(compact), nullptr,
                                             nullptr, "estimate");
            },
            &id);
        row_est_ms[e] = std::min(est_ms, row_ms[e]);
        ledger.add_contains(id, "estimators", row_est_ms[e]);
      }
    }

    // --- stream: the single engine, ingest to each close boundary ----------
    obs::LandscapeHistory stream_history;
    stream::StreamEngineConfig sc;
    sc.meter = shape.meter;
    sc.first_epoch = first;
    sc.epoch_count = shape.epochs;
    sc.server_count = shape.servers;
    sc.worker_threads = 1;
    sc.history = &stream_history;
    sc.compact_state = shape.compact;
    sc.compact_spill_threshold = shape.spill;
    std::optional<stream::StreamEngine> engine;
    core::LandscapeReport stream_report;
    {
      const auto phase = ledger.span("bench.stream");
      int construct_id = -1;
      ledger.time("stream.construct", 1, [&] { engine.emplace(sc); }, &construct_id);
      book_prepare(construct_id);

      const auto ingest_segment = [&](std::size_t seg, std::size_t begin, std::size_t end) {
        int id = -1;
        if (w.binary) {
          std::size_t row = 0;
          ledger.time("stream.ingest", static_cast<double>(end - begin), [&] {
            for (const OwnedBlock& block : w.blocks) {
              const std::size_t lo = std::max(begin, row);
              const std::size_t hi = std::min(end, row + block.t_ms.size());
              if (lo < hi) {
                engine->ingest_block(block.columns(lo - row, hi - row),
                                     w.table().first(block.table_size));
              }
              row += block.t_ms.size();
            }
          }, &id);
        } else {
          ledger.time("stream.ingest", static_cast<double>(end - begin), [&] {
            for (std::size_t i = begin; i < end; ++i) engine->ingest(w.lookups[i]);
          }, &id);
        }
        ledger.add_contains(id, "detect", std::min(resolve_seg_ms[seg], ledger.ms(id)));
      };

      std::size_t begin = 0;
      for (std::size_t k = 0; k < cut.size(); ++k) {
        ingest_segment(k, begin, cut[k]);
        begin = cut[k];
        const std::int64_t e = first + static_cast<std::int64_t>(k);
        int id = -1;
        const double close_ms = ledger.time("stream.advance", 1,
                                            [&] { engine->advance(close_boundary(shape, e)); }, &id);
        ledger.add_contains(id, "estimators", std::min(row_est_ms[e], close_ms));
        ledger.add_contains(id, "core",
                            std::clamp(row_ms[e] - row_est_ms[e], 0.0, close_ms - std::min(row_est_ms[e], close_ms)));
      }
      ingest_segment(cut.size(), begin, tuples);
      ledger.time("stream.finish", 1, [&] { stream_report = engine->finish(); });
    }

    // --- obs: replay the closed rows into a fresh history ----------------
    {
      obs::LandscapeHistory history;
      const auto closed = engine->closed_rows();
      std::int64_t e = first;
      for (const auto& cells : closed) {
        const obs::LandscapeEpochRecord row = history_row(meter, e++, cells);
        ledger.time("obs.record", 1, [&] { history.record(row); });
      }
    }

    // --- cluster: the sharded runtime on the same input ------------------
    obs::LagTracker lag(shape.shards);
    obs::LandscapeHistory cluster_history;
    cluster::ClusterConfig cc;
    cc.meter = shape.meter;
    cc.first_epoch = first;
    cc.epoch_count = shape.epochs;
    cc.router = cluster::ShardRouter::by_range(shape.servers, shape.shards);
    cc.compact_state = shape.compact;
    cc.compact_spill_threshold = shape.spill;
    cc.history = &cluster_history;
    cc.lag = &lag;
    std::optional<cluster::ClusterRuntime> runtime;
    core::LandscapeReport cluster_report;
    {
      const auto phase = ledger.span("bench.cluster");
      ledger.time("cluster.construct", 1, [&] { runtime.emplace(std::move(cc)); });
      ledger.time("cluster.ingest", static_cast<double>(tuples), [&] {
        if (w.binary) {
          for (const OwnedBlock& block : w.blocks) {
            runtime->ingest_block(block.columns(0, block.t_ms.size()),
                                  w.table().first(block.table_size));
          }
        } else {
          for (const auto& lookup : w.lookups) runtime->ingest(lookup);
        }
        runtime->flush();
      });
      int finish_id = -1;
      const double finish_ms =
          ledger.time("cluster.finish", 1, [&] { cluster_report = runtime->finish(); }, &finish_id);
      // finish() waits for the shards' epoch closes; the slowest shard's
      // closes are the estimation on its critical path. Split it between
      // core and estimators as the single engine's rows split.
      double slowest_close_ms = 0.0;
      for (std::size_t i = 0; i < runtime->shard_count(); ++i) {
        slowest_close_ms = std::max(slowest_close_ms,
                                    lag.stage_sample(i, obs::LagStage::kEpochClose).total_ms);
      }
      double rows_ms = 0.0, rows_est_ms = 0.0;
      for (const auto& [e, v] : row_ms) rows_ms += v;
      for (const auto& [e, v] : row_est_ms) rows_est_ms += v;
      const double inside = std::min(slowest_close_ms, finish_ms);
      const double est_share = rows_ms > 0.0 ? rows_est_ms / rows_ms : 1.0;
      ledger.add_contains(finish_id, "estimators", inside * est_share);
      ledger.add_contains(finish_id, "core", inside * (1.0 - est_share));
    }
    ledger.end(root.id());

    // --- counters -----------------------------------------------------------
    json::Array shard_matched, stages;
    std::uint64_t cluster_ingested = 0, cluster_late = 0;
    for (std::size_t i = 0; i < runtime->shard_count(); ++i) {
      const cluster::ShardStats st = runtime->shard_stats(i);
      shard_matched.push_back(num(static_cast<double>(st.matched)));
      cluster_ingested += st.ingested;
      cluster_late += st.late_dropped;
      json::Object per_stage;
      for (std::size_t k = 0; k < obs::kLagStageCount; ++k) {
        const auto stage = static_cast<obs::LagStage>(k);
        per_stage.emplace(std::string(obs::lag_stage_name(stage)),
                          num(lag.stage_sample(i, stage).total_ms));
      }
      stages.push_back(json::Value(std::move(per_stage)));
    }
    std::unordered_set<std::string_view> distinct;
    for (const auto& l : w.lookups) distinct.insert(l.domain);

    const bool same = json::write(core::landscape_to_json(stream_report)) ==
                          json::write(core::landscape_to_json(cluster_report)) &&
                      json::write(stream_history.to_json()) ==
                          json::write(cluster_history.to_json());
    other.emplace("tuples", num(static_cast<double>(tuples)));
    other.emplace("binary", json::Value(w.binary));
    other.emplace("epochs", num(static_cast<double>(shape.epochs)));
    other.emplace("servers", num(static_cast<double>(shape.servers)));
    other.emplace("exact_cells", num(static_cast<double>(exact_cells)));
    other.emplace("spilled_cells", num(static_cast<double>(spilled_cells)));
    other.emplace("distinct_domains", num(static_cast<double>(distinct.size())));
    other.emplace("match_attempted", num(static_cast<double>(match_stats.stream_size)));
    other.emplace("match_matched", num(static_cast<double>(match_stats.matched)));
    other.emplace("memo_hits", num(static_cast<double>(memo_hits)));
    other.emplace("memo_misses", num(static_cast<double>(memo_misses)));
    other.emplace("stream_ingested", num(static_cast<double>(engine->ingested())));
    other.emplace("stream_matched", num(static_cast<double>(engine->matched())));
    other.emplace("stream_unmatched", num(static_cast<double>(engine->unmatched())));
    other.emplace("stream_late_dropped", num(static_cast<double>(engine->late_dropped())));
    other.emplace("stream_peak_open_bytes", num(static_cast<double>(engine->peak_open_buffer_bytes())));
    other.emplace("stream_compact_spills", num(static_cast<double>(engine->compact_spills())));
    other.emplace("cluster_ingested", num(static_cast<double>(cluster_ingested)));
    other.emplace("cluster_late_dropped", num(static_cast<double>(cluster_late)));
    other.emplace("cluster_shard_matched", json::Value(std::move(shard_matched)));
    other.emplace("cluster_lag_stage_ms", json::Value(std::move(stages)));
    other.emplace("cluster_matches_stream", json::Value(same));

    const std::string out_path = need(args, "--spans-out");
    std::ofstream out(out_path);
    out << json::write(ledger.chrome_trace(std::move(other))) << '\n';
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + out_path);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_layers: %s\n", e.what());
    return 1;
  }
}
