#include "cluster/cluster_runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/event_journal.hpp"
#include "obs/lag_tracker.hpp"
#include "obs/landscape_history.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace botmeter::cluster {

namespace {

constexpr const char* kCheckpointSchema = "botmeter.cluster_checkpoint.v1";
constexpr const char* kHealthSchema = "botmeter.cluster_health.v1";

template <typename T>
json::Value number(T v) {
  return json::Value(static_cast<double>(v));
}

/// The analysis configuration shard engines and their shared meter run
/// under: the obs sinks are nulled, because shard stream.* series would
/// collide across shards and per-shard histories would not be the merged
/// landscape. The runtime publishes cluster.* series and merged rows itself.
core::BotMeterConfig shard_meter_config(core::BotMeterConfig meter) {
  meter.metrics = nullptr;
  meter.trace = nullptr;
  meter.history = nullptr;
  return meter;
}

std::shared_ptr<const core::BotMeter> prepare_meter(const ClusterConfig& config) {
  auto meter = std::make_shared<core::BotMeter>(shard_meter_config(config.meter));
  meter->prepare_epochs(config.first_epoch, config.epoch_count);
  return meter;
}

}  // namespace

void ClusterConfig::validate() const {
  meter.validate();
  if (epoch_count <= 0) {
    throw ConfigError("ClusterConfig: epoch_count must be > 0");
  }
  if (router.shard_count() == 0) {
    throw ConfigError("ClusterConfig: router is empty — build one via "
                      "ShardRouter::by_range or explicit_assignment");
  }
  if (queue_capacity == 0) {
    throw ConfigError("ClusterConfig: queue_capacity must be > 0");
  }
  if (flush_tuples == 0) {
    throw ConfigError("ClusterConfig: flush_tuples must be > 0");
  }
  if (degraded_frontier_lag < 1 ||
      unhealthy_frontier_lag < degraded_frontier_lag) {
    throw ConfigError(
        "ClusterConfig: need 1 <= degraded_frontier_lag <= "
        "unhealthy_frontier_lag");
  }
  if (health) health->validate();
  if (lag != nullptr && lag->shard_count() != router.shard_count()) {
    throw ConfigError("ClusterConfig: lag tracker was built for " +
                      std::to_string(lag->shard_count()) +
                      " shards, router has " +
                      std::to_string(router.shard_count()));
  }
}

// --- ShardFeed (thin forwarding handles) ------------------------------------

void ShardFeed::ingest(const dns::ForwardedLookup& lookup) {
  runtime_->scatter_lookup(lookup, shard_);
}

void ShardFeed::ingest(std::span<const dns::ForwardedLookup> batch) {
  for (const dns::ForwardedLookup& lookup : batch) {
    runtime_->scatter_lookup(lookup, shard_);
  }
}

void ShardFeed::ingest_block(const dns::LookupColumns& block,
                             std::span<const std::string_view> domains) {
  runtime_->scatter_block(block, domains,
                          runtime_->shards_[shard_]->feed_remap, shard_);
}

void ShardFeed::advance(TimePoint watermark) {
  runtime_->feed_advance(shard_, watermark);
}

void ShardFeed::flush() { runtime_->flush_shard(shard_); }

// --- construction -----------------------------------------------------------

ClusterRuntime::ClusterRuntime(ClusterConfig config)
    : config_((config.validate(), std::move(config))),
      meter_(prepare_meter(config_)),
      estimator_name_(meter_->active_estimator().name()),
      merger_(config_.router, config_.first_epoch, config_.epoch_count),
      instr_(config_.lag != nullptr || config_.journal != nullptr ||
             config_.meter.trace != nullptr),
      origin_(std::chrono::steady_clock::now()) {
  merger_.on_merge([this](const MergedEpoch& merged) { handle_merge(merged); });

  const std::size_t n = config_.router.shard_count();
  shards_.reserve(n);
  prev_shard_state_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->engine = make_engine(i);
    shard->monitor = std::make_unique<stream::StreamHealthMonitor>(
        config_.health.value_or(stream::StreamHealthConfig{}));
    shard->next_epoch.store(config_.first_epoch, std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
}

std::unique_ptr<stream::StreamEngine> ClusterRuntime::make_engine(
    std::size_t index) {
  stream::StreamEngineConfig ec;
  ec.meter = shard_meter_config(config_.meter);
  ec.first_epoch = config_.first_epoch;
  ec.epoch_count = config_.epoch_count;
  ec.server_count = config_.router.servers_of(index).size();
  ec.worker_threads = config_.shard_worker_threads;
  ec.allowed_lateness = config_.allowed_lateness;
  ec.compact_state = config_.compact_state;
  ec.compact_spill_threshold = config_.compact_spill_threshold;
  ec.compact = config_.compact;
  auto engine = std::make_unique<stream::StreamEngine>(std::move(ec), meter_);
  engine->on_epoch_close([this, index](const stream::EpochReport& report) {
    handle_close(index, report.epoch);
  });
  return engine;
}

ClusterRuntime::~ClusterRuntime() { stop_threads(); }

// --- merge / close plumbing -------------------------------------------------

double ClusterRuntime::obs_now_ms() const {
  if (config_.meter.trace != nullptr) return config_.meter.trace->now_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void ClusterRuntime::drain_close_latencies(Shard& shard) {
  if (config_.lag == nullptr) return;
  const std::span<const double> latencies = shard.engine->close_latencies_ms();
  while (shard.close_latency_cursor < latencies.size()) {
    config_.lag->record(shard.index, obs::LagStage::kEpochClose,
                        latencies[shard.close_latency_cursor++]);
  }
}

void ClusterRuntime::handle_close(std::size_t shard, std::int64_t epoch) {
  // Runs on the shard's thread, immediately after the engine appended the
  // epoch's cell row.
  const auto rows = shards_[shard]->engine->closed_rows();
  if (instr_ && !replaying_) {
    const double now = obs_now_ms();
    const std::span<const double> latencies =
        shards_[shard]->engine->close_latencies_ms();
    const double close_ms = latencies.empty() ? 0.0 : latencies.back();
    if (config_.journal != nullptr) {
      config_.journal->log(obs::EventKind::kEpochClose,
                           static_cast<std::int32_t>(shard), epoch, close_ms);
    }
    if (config_.lag != nullptr) {
      config_.lag->note_shard_close(epoch, shard, now);
    }
    if (config_.meter.trace != nullptr) {
      // Mint the close->merge flow id BEFORE offering: when this is the
      // last-arriving close, offer() merges the epoch synchronously on this
      // thread and handle_merge must find the id already stored. Earlier
      // closes of the same epoch are overwritten — the triggering (last)
      // writer is the one the merge span links from.
      const std::uint64_t flow = obs::TraceSession::next_flow_id();
      {
        std::lock_guard<std::mutex> lock(flow_mu_);
        close_flow_[epoch] = flow;
      }
      config_.meter.trace->record_flow_span("cluster.epoch_close",
                                            now - close_ms, close_ms,
                                            this_thread_ordinal(), 0, flow);
    }
  }
  merger_.offer(shard, epoch,
                std::vector<estimators::EpochCell>(rows.back().begin(),
                                                   rows.back().end()));
}

void ClusterRuntime::handle_merge(const MergedEpoch& merged) {
  // Under the merger mutex, on whichever shard thread completed the epoch.
  // Keep this short and never call back into the merger.
  if (instr_ && !replaying_) {
    const double now = obs_now_ms();
    if (config_.lag != nullptr) config_.lag->note_merge(merged.epoch, now);
    if (config_.journal != nullptr) {
      // No merger accessors here — we are under its mutex.
      config_.journal->log(obs::EventKind::kMergePublish, -1, merged.epoch,
                           static_cast<double>(merged.cells.size()));
    }
    if (config_.meter.trace != nullptr) {
      std::uint64_t flow = 0;
      {
        std::lock_guard<std::mutex> lock(flow_mu_);
        const auto it = close_flow_.find(merged.epoch);
        if (it != close_flow_.end()) {
          flow = it->second;
          close_flow_.erase(it);
        }
      }
      config_.meter.trace->record_flow_span("cluster.merge_publish", now,
                                            obs_now_ms() - now,
                                            this_thread_ordinal(), flow, 0);
    }
  }
  if (replaying_ || config_.history == nullptr) return;
  obs::LandscapeEpochRecord row;
  row.epoch = merged.epoch;
  row.family = config_.meter.dga.name;
  row.estimator = estimator_name_;
  row.servers.reserve(merged.cells.size());
  for (const estimators::EpochCell& cell : merged.cells) {
    obs::LandscapeCell snapshot;
    snapshot.population = cell.estimate.value;
    snapshot.interval90 = cell.estimate.interval;
    snapshot.matched = cell.matched;
    snapshot.approximate = cell.estimate.approximate;
    snapshot.sketch_rse = cell.estimate.sketch_rse;
    row.servers.push_back(std::move(snapshot));
  }
  if (config_.health) {
    row.health = std::string(stream::health_state_name(cluster_state()));
  }
  config_.history->record(row);
}

// --- shard threads ----------------------------------------------------------

void ClusterRuntime::ensure_started() {
  if (finished_.load(std::memory_order_acquire)) {
    throw ConfigError("ClusterRuntime: ingest after finish()");
  }
  if (started_.load(std::memory_order_acquire)) return;
  // Per-shard feeds may race here from different producer threads; exactly
  // one spawns the shard threads.
  std::lock_guard<std::mutex> lock(start_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread([this, i] { shard_main(i); });
  }
  started_.store(true, std::memory_order_release);
}

void ClusterRuntime::shard_main(std::size_t index) {
  set_this_thread_label("cluster.shard_" + std::to_string(index));
  Shard& shard = *shards_[index];
  for (;;) {
    ShardBatch batch;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      for (;;) {
        if (!shard.queue.empty()) break;  // drain before stop or pause
        if (shard.stop) {
          const bool close = shard.close_on_stop;
          lock.unlock();
          if (close) close_shard(shard);
          return;
        }
        if (shard.pause) {
          shard.idle = true;
          shard.cv_idle.notify_all();
          shard.cv_pop.wait(lock, [&shard] {
            return !shard.pause || shard.stop || !shard.queue.empty();
          });
          shard.idle = false;
          continue;
        }
        shard.cv_pop.wait(lock);
      }
      batch = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.cv_push.notify_one();
    }
    apply_batch(shard, batch);
  }
}

void ClusterRuntime::apply_batch(Shard& shard, ShardBatch& batch) {
  const bool tracked = instr_ && !batch.t_ms.empty();
  double dequeued_ms = 0.0;
  if (tracked) {
    dequeued_ms = obs_now_ms();
    if (config_.lag != nullptr) {
      config_.lag->record(shard.index, obs::LagStage::kQueueWait,
                          dequeued_ms - batch.enqueued_ms);
    }
  }

  if (!batch.t_ms.empty()) {
    shard.engine->ingest_resolved(
        dns::LookupColumns{batch.t_ms, batch.server, batch.entry});
  }
  if (batch.advance) {
    shard.engine->advance(*batch.advance);
    if (config_.journal != nullptr) {
      config_.journal->log(obs::EventKind::kWatermarkAdvance,
                           static_cast<std::int32_t>(shard.index),
                           obs::JournalEvent::kNoEpoch,
                           static_cast<double>(batch.advance->millis()));
    }
  }
  if (batch.sample_now_ms) {
    shard.monitor->sample(*shard.engine, *batch.sample_now_ms);
  }

  if (tracked) {
    const double done_ms = obs_now_ms();
    if (config_.lag != nullptr) {
      config_.lag->record(shard.index, obs::LagStage::kShardIngest,
                          done_ms - dequeued_ms);
    }
    if (config_.meter.trace != nullptr) {
      config_.meter.trace->record_flow_span("cluster.shard_ingest",
                                            dequeued_ms, done_ms - dequeued_ms,
                                            this_thread_ordinal(),
                                            batch.flow_id, 0);
    }
  }
  // Epoch closes happen inside ingest_block/advance; attribute their wall
  // time (already measured by the engine) to the epoch_close stage.
  drain_close_latencies(shard);

  mirror_counters(shard);
}

void ClusterRuntime::mirror_counters(Shard& shard) {
  shard.ingested.store(shard.engine->ingested(), std::memory_order_relaxed);
  shard.matched.store(shard.engine->matched(), std::memory_order_relaxed);
  shard.unmatched.store(shard.engine->unmatched(), std::memory_order_relaxed);
  shard.late_dropped.store(shard.engine->late_dropped(),
                           std::memory_order_relaxed);
  shard.next_epoch.store(shard.engine->next_epoch_to_close(),
                         std::memory_order_relaxed);
  shard.open_bytes.store(shard.engine->open_buffer_bytes(),
                         std::memory_order_relaxed);
  shard.peak_open_bytes.store(shard.engine->peak_open_buffer_bytes(),
                              std::memory_order_relaxed);
  shard.compact_spills.store(shard.engine->compact_spills(),
                             std::memory_order_relaxed);
}

void ClusterRuntime::enqueue(std::size_t shard, ShardBatch batch) {
  ensure_started();
  const bool tracked = instr_ && !batch.t_ms.empty();
  if (tracked) {
    const double now = obs_now_ms();
    if (config_.lag != nullptr) {
      config_.lag->record(shard, obs::LagStage::kProducerBatch,
                          now - batch.formed_ms);
    }
    if (config_.meter.trace != nullptr) {
      batch.flow_id = obs::TraceSession::next_flow_id();
      config_.meter.trace->record_flow_span("cluster.producer_batch",
                                            batch.formed_ms,
                                            now - batch.formed_ms,
                                            this_thread_ordinal(), 0,
                                            batch.flow_id);
    }
  }
  Shard& s = *shards_[shard];
  std::unique_lock<std::mutex> lock(s.mu);
  if (config_.journal != nullptr &&
      s.queue.size() >= config_.queue_capacity) {
    // The producer is about to block on a full queue — backpressure worth a
    // flight-recorder entry (the journal mutex is a leaf; safe under s.mu).
    config_.journal->log(obs::EventKind::kQueueSaturation,
                         static_cast<std::int32_t>(shard),
                         obs::JournalEvent::kNoEpoch,
                         static_cast<double>(s.queue.size()));
  }
  s.cv_push.wait(lock,
                 [&s, this] { return s.queue.size() < config_.queue_capacity; });
  // Stamp after the capacity wait: time blocked on backpressure belongs to
  // the producer, not to the batch's queue_wait stage.
  if (tracked) batch.enqueued_ms = obs_now_ms();
  s.queue.push_back(std::move(batch));
  s.cv_pop.notify_one();
}

void ClusterRuntime::pause_threads() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->pause = true;
    shard->cv_pop.notify_all();
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->cv_idle.wait(lock, [&shard] {
      return shard->idle && shard->queue.empty();
    });
  }
}

void ClusterRuntime::resume_threads() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->pause = false;
    shard->cv_pop.notify_all();
  }
}

void ClusterRuntime::stop_threads(bool close_engines) {
  if (!started_) return;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stop = true;
    shard->close_on_stop = close_engines;
    shard->cv_pop.notify_all();
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  started_ = false;
}

// --- producer-side scatter --------------------------------------------------

std::size_t ClusterRuntime::route(std::uint32_t server,
                                  std::optional<std::size_t> owner) const {
  const std::size_t shard = config_.router.shard_of(server);
  if (owner && shard != *owner) {
    throw ConfigError("ShardFeed: server " + std::to_string(server) +
                      " is not owned by shard " + std::to_string(*owner));
  }
  return shard;
}

void ClusterRuntime::scatter_tuple(std::size_t shard, std::int64_t t_ms,
                                   std::uint32_t local_server,
                                   std::uint32_t entry) {
  ShardBatch& pending = shards_[shard]->pending;
  // One predictable branch per tuple when instrumentation is off; the clock
  // is read once per *batch* (first tuple) when it is on.
  if (instr_ && pending.t_ms.empty()) pending.formed_ms = obs_now_ms();
  pending.t_ms.push_back(t_ms);
  pending.server.push_back(local_server);
  pending.entry.push_back(entry);
  if (pending.t_ms.size() >= config_.flush_tuples) flush_shard(shard);
}

void ClusterRuntime::scatter_lookup(const dns::ForwardedLookup& lookup,
                                    std::optional<std::size_t> owner) {
  const std::uint32_t server = lookup.forwarder.value();
  scatter_tuple(route(server, owner), lookup.timestamp.millis(),
                config_.router.local_index(server),
                meter_->matcher().resolve(lookup.domain).entry());
}

void ClusterRuntime::ingest(const dns::ForwardedLookup& lookup) {
  scatter_lookup(lookup, std::nullopt);
}

void ClusterRuntime::ingest(std::span<const dns::ForwardedLookup> batch) {
  for (const dns::ForwardedLookup& lookup : batch) ingest(lookup);
}

void ClusterRuntime::ingest_block(const dns::LookupColumns& block,
                                  std::span<const std::string_view> domains) {
  scatter_block(block, domains, remap_, std::nullopt);
}

void ClusterRuntime::ingest_resolved(const dns::LookupColumns& block) {
  if (block.server.size() != block.size() ||
      block.domain.size() != block.size()) {
    throw DataError("ClusterRuntime::ingest_resolved: ragged columns");
  }
  const std::uint32_t entries = meter_->matcher().entry_count();
  for (const std::uint32_t id : block.domain) {
    if (id >= entries && id != detect::DomainMatcher::kNoEntry) {
      throw DataError("ClusterRuntime::ingest_resolved: entry id " +
                      std::to_string(id) + " outside the matcher");
    }
  }
  scatter_entries(block, std::nullopt,
                  [&block](std::size_t i) { return block.domain[i]; });
}

void ClusterRuntime::scatter_block(
    const dns::LookupColumns& block, std::span<const std::string_view> domains,
    std::vector<detect::DomainMatcher::Resolved>& remap,
    std::optional<std::size_t> owner) {
  const char* const who =
      owner ? "ShardFeed::ingest_block" : "ClusterRuntime::ingest_block";
  if (block.server.size() != block.size() ||
      block.domain.size() != block.size()) {
    throw DataError(std::string(who) + ": ragged columns");
  }
  meter_->matcher().resolve_tail(domains, remap);
  for (const std::uint32_t pid : block.domain) {
    if (pid >= domains.size()) {
      throw DataError(std::string(who) + ": domain id " + std::to_string(pid) +
                      " outside the table");
    }
  }
  scatter_entries(block, owner, [&block, &remap](std::size_t i) {
    return remap[block.domain[i]].entry();
  });
}

template <typename EntryOf>
void ClusterRuntime::scatter_entries(const dns::LookupColumns& block,
                                     std::optional<std::size_t> owner,
                                     EntryOf entry_of) {
  const std::size_t n = block.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t server = block.server[i];
    scatter_tuple(route(server, owner), block.t_ms[i],
                  config_.router.local_index(server), entry_of(i));
  }
}

void ClusterRuntime::flush_shard(std::size_t shard) {
  ShardBatch& pending = shards_[shard]->pending;
  if (pending.empty()) return;
  ShardBatch batch = std::move(pending);
  pending = ShardBatch{};
  enqueue(shard, std::move(batch));
}

void ClusterRuntime::flush() {
  for (std::size_t i = 0; i < shards_.size(); ++i) flush_shard(i);
}

void ClusterRuntime::advance(TimePoint watermark) {
  for (std::size_t i = 0; i < shards_.size(); ++i) feed_advance(i, watermark);
}

ShardFeed ClusterRuntime::shard_feed(std::size_t shard) {
  if (shard >= shards_.size()) {
    throw ConfigError("ClusterRuntime: shard " + std::to_string(shard) +
                      " outside the shard count " +
                      std::to_string(shards_.size()));
  }
  return ShardFeed(this, shard);
}

void ClusterRuntime::feed_advance(std::size_t shard, TimePoint watermark) {
  ShardBatch& pending = shards_[shard]->pending;
  if (!pending.advance || watermark > *pending.advance) {
    pending.advance = watermark;
  }
  flush_shard(shard);
}

// --- finish -----------------------------------------------------------------

void ClusterRuntime::close_shard(Shard& shard) {
  // Closes every remaining epoch; each close offers its row to the merger
  // through the on_epoch_close wiring. The per-shard report is the merged
  // report's restriction to the shard's servers — nothing to keep.
  try {
    (void)shard.engine->finish();
    drain_close_latencies(shard);
    mirror_counters(shard);
  } catch (...) {
    shard.close_error = std::current_exception();
  }
}

core::LandscapeReport ClusterRuntime::finish() {
  if (finished_) throw ConfigError("ClusterRuntime: finish() called twice");
  flush();
  // Every shard closes its trailing epochs on its own thread; the merger is
  // mutex-guarded and publishes in epoch order whichever shard closes last.
  ensure_started();
  stop_threads(/*close_engines=*/true);
  finished_ = true;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->close_error) std::rethrow_exception(shard->close_error);
  }
  core::LandscapeReport report = merger_.assemble(estimator_name_);
  if (config_.meter.metrics != nullptr) {
    config_.meter.metrics->gauge("cluster.population.total")
        .set(report.total_population());
  }
  return report;
}

// --- introspection / health -------------------------------------------------

const core::BotMeter& ClusterRuntime::shard_meter(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw ConfigError("ClusterRuntime: shard " + std::to_string(shard) +
                      " outside the shard count " +
                      std::to_string(shards_.size()));
  }
  return shards_[shard]->engine->meter();
}

ShardStats ClusterRuntime::shard_stats(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw ConfigError("ClusterRuntime: shard " + std::to_string(shard) +
                      " outside the shard count " +
                      std::to_string(shards_.size()));
  }
  const Shard& s = *shards_[shard];
  ShardStats stats;
  stats.ingested = s.ingested.load(std::memory_order_relaxed);
  stats.matched = s.matched.load(std::memory_order_relaxed);
  stats.unmatched = s.unmatched.load(std::memory_order_relaxed);
  stats.late_dropped = s.late_dropped.load(std::memory_order_relaxed);
  stats.next_epoch_to_close = s.next_epoch.load(std::memory_order_relaxed);
  stats.open_buffer_bytes = s.open_bytes.load(std::memory_order_relaxed);
  stats.peak_open_buffer_bytes =
      s.peak_open_bytes.load(std::memory_order_relaxed);
  stats.compact_spills = s.compact_spills.load(std::memory_order_relaxed);
  return stats;
}

stream::HealthState ClusterRuntime::sample_health(double now_ms) {
  if (started_ && !finished_) {
    // Monitors must sample on the thread that owns the engine; queue one
    // sample item per shard. The fold below therefore reads the *previous*
    // round's samples — health is an operational signal, one round of
    // latency is immaterial.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ShardBatch batch;
      batch.sample_now_ms = now_ms;
      enqueue(i, std::move(batch));
    }
  } else {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      shard->monitor->sample(*shard->engine, now_ms);
    }
  }

  stream::HealthState worst = stream::HealthState::kOk;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    worst = std::max(worst, shard->monitor->state());
  }
  const std::int64_t frontier = merger_.merge_frontier();
  const std::int64_t lag = merger_.max_shard_progress() - frontier;
  if (lag >= config_.unhealthy_frontier_lag) {
    worst = std::max(worst, stream::HealthState::kUnhealthy);
  } else if (lag >= config_.degraded_frontier_lag) {
    worst = std::max(worst, stream::HealthState::kDegraded);
  }
  cluster_state_.store(static_cast<int>(worst), std::memory_order_relaxed);

  if (config_.journal != nullptr) {
    // Journal every state change since the previous sample (shard-level and
    // cluster-level), and flush the black box the moment the cluster goes
    // unhealthy — by then the interesting history is already in the ring.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const int state = static_cast<int>(shards_[i]->monitor->state());
      if (state != prev_shard_state_[i]) {
        config_.journal->log(
            obs::EventKind::kHealthTransition, static_cast<std::int32_t>(i),
            obs::JournalEvent::kNoEpoch, static_cast<double>(state),
            std::string(stream::health_state_name(
                static_cast<stream::HealthState>(prev_shard_state_[i]))) +
                "->" +
                std::string(stream::health_state_name(
                    static_cast<stream::HealthState>(state))));
        prev_shard_state_[i] = state;
        if (state == static_cast<int>(stream::HealthState::kUnhealthy)) {
          (void)config_.journal->auto_dump();
        }
      }
    }
    const int cluster_now = static_cast<int>(worst);
    if (cluster_now != prev_cluster_state_) {
      config_.journal->log(
          obs::EventKind::kHealthTransition, -1, obs::JournalEvent::kNoEpoch,
          static_cast<double>(cluster_now),
          std::string(stream::health_state_name(
              static_cast<stream::HealthState>(prev_cluster_state_))) +
              "->" + std::string(stream::health_state_name(worst)));
      const bool went_unhealthy =
          worst == stream::HealthState::kUnhealthy &&
          prev_cluster_state_ != static_cast<int>(stream::HealthState::kUnhealthy);
      prev_cluster_state_ = cluster_now;
      if (went_unhealthy) (void)config_.journal->auto_dump();
    }
  }

  obs::MetricsRegistry* const metrics = config_.meter.metrics;
  if (metrics != nullptr) {
    metrics->gauge("cluster.health.state").set(static_cast<double>(worst));
    metrics->gauge("cluster.merge_frontier")
        .set(static_cast<double>(frontier));
    metrics->gauge("cluster.frontier_lag").set(static_cast<double>(lag));
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string label = "shard_" + std::to_string(i);
      const ShardStats stats = shard_stats(i);
      metrics->gauge("cluster.shard.health_state", label)
          .set(static_cast<double>(shards_[i]->monitor->state()));
      metrics->gauge("cluster.shard.ingested", label)
          .set(static_cast<double>(stats.ingested));
      metrics->gauge("cluster.shard.matched", label)
          .set(static_cast<double>(stats.matched));
      metrics->gauge("cluster.shard.late_dropped", label)
          .set(static_cast<double>(stats.late_dropped));
      metrics->gauge("cluster.shard.next_epoch", label)
          .set(static_cast<double>(stats.next_epoch_to_close));
      metrics->gauge("cluster.shard.open_buffer_bytes", label)
          .set(static_cast<double>(stats.open_buffer_bytes));
      metrics->gauge("cluster.shard.open_buffer_bytes.peak", label)
          .set(static_cast<double>(stats.peak_open_buffer_bytes));
      if (config_.compact_state) {
        metrics->gauge("cluster.shard.compact_spills", label)
            .set(static_cast<double>(stats.compact_spills));
      }
    }
  }
  return worst;
}

json::Value ClusterRuntime::health_json() const {
  const std::int64_t frontier = merger_.merge_frontier();
  const std::int64_t progress = merger_.max_shard_progress();

  json::Array shards;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const stream::StreamHealthSignals signals =
        shards_[i]->monitor->last_signals();
    json::Object entry;
    entry.emplace("shard", number(static_cast<std::int64_t>(i)));
    entry.emplace("state",
                  json::Value(std::string(stream::health_state_name(
                      shards_[i]->monitor->state()))));
    entry.emplace("watermark_lag_ms", number(signals.watermark_lag_ms));
    entry.emplace("late_rate", number(signals.late_rate));
    entry.emplace("open_buffer_bytes", number(signals.open_buffer_bytes));
    entry.emplace("peak_open_buffer_bytes",
                  number(shards_[i]->peak_open_bytes.load(
                      std::memory_order_relaxed)));
    entry.emplace("ingested", number(signals.ingested));
    entry.emplace("matched", number(signals.matched));
    entry.emplace("late_dropped", number(signals.late_dropped));
    entry.emplace("epochs_closed", number(signals.epochs_closed));
    shards.emplace_back(std::move(entry));
  }

  json::Object root;
  root.emplace("schema", json::Value(std::string(kHealthSchema)));
  root.emplace("state", json::Value(std::string(stream::health_state_name(
                            cluster_state()))));
  root.emplace("merge_frontier", number(frontier));
  root.emplace("max_shard_progress", number(progress));
  root.emplace("frontier_lag", number(progress - frontier));
  root.emplace("shards", json::Value(std::move(shards)));
  if (config_.lag != nullptr) {
    // A "degraded" verdict names its suspect: the slowest pipeline stage and
    // the shard that accumulated the most wall time.
    root.emplace("lag", config_.lag->attribution_json());
  }
  return json::Value(std::move(root));
}

// --- checkpointing ----------------------------------------------------------

json::Value ClusterRuntime::checkpoint() {
  // Pending producer-side batches are part of the state being snapshotted:
  // flush them first (this starts the shard threads if nothing had ever
  // filled a batch — small traces live entirely in pending batches).
  if (!finished_.load(std::memory_order_acquire)) flush();
  const bool pause = started_ && !finished_;
  if (pause) pause_threads();

  json::Array shards;
  shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shards.emplace_back(shard->engine->checkpoint());
  }
  json::Object root;
  root.emplace("schema", json::Value(std::string(kCheckpointSchema)));
  root.emplace("router", config_.router.to_json());
  root.emplace("merge_frontier", number(merger_.merge_frontier()));
  root.emplace("shards", json::Value(std::move(shards)));

  if (pause) resume_threads();
  if (config_.journal != nullptr) {
    config_.journal->log(obs::EventKind::kCheckpoint, -1,
                         obs::JournalEvent::kNoEpoch,
                         static_cast<double>(merger_.merge_frontier()));
  }
  return json::Value(std::move(root));
}

void ClusterRuntime::restore(const json::Value& checkpoint) {
  const bool fed = std::any_of(
      shards_.begin(), shards_.end(), [](const std::unique_ptr<Shard>& shard) {
        return !shard->pending.empty() || shard->engine->ingested() != 0;
      });
  if (started_ || finished_ || merger_.merged_count() != 0 || fed) {
    throw ConfigError("ClusterRuntime::restore: runtime already used");
  }
  if (checkpoint.at("schema").as_string() != kCheckpointSchema) {
    throw DataError("ClusterRuntime::restore: unknown schema '" +
                    checkpoint.at("schema").as_string() + "'");
  }
  // Compare the router's shape before building anything from it: a tampered
  // count must fail here, not as an allocation the size of the count.
  const json::Value& stored_router = checkpoint.at("router");
  const json::Value configured = config_.router.to_json();
  for (const char* key : {"mode", "server_count", "shard_count"}) {
    const std::string stored = json::write(stored_router.at(key));
    const std::string want = json::write(configured.at(key));
    if (stored != want) {
      throw DataError("ClusterRuntime::restore: checkpoint router." +
                      std::string(key) + " " + stored +
                      " does not match the configured " + want);
    }
  }
  if (!(ShardRouter::from_json(stored_router) == config_.router)) {
    throw DataError(
        "ClusterRuntime::restore: checkpoint was taken under a different "
        "routing — resumed traffic would land on the wrong shards");
  }
  const json::Array& shards = checkpoint.at("shards").as_array();
  if (shards.size() != shards_.size()) {
    throw DataError("ClusterRuntime::restore: checkpoint holds " +
                    std::to_string(shards.size()) + " shards, runtime has " +
                    std::to_string(shards_.size()));
  }

  // Load every envelope into a fresh engine — cheap, they borrow the shared
  // meter — and check the frontier they imply (the merger merges an epoch
  // once every shard closed it) before touching the runtime.
  std::vector<std::unique_ptr<stream::StreamEngine>> engines;
  engines.reserve(shards_.size());
  std::size_t all_closed = static_cast<std::size_t>(config_.epoch_count);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    engines.push_back(make_engine(i));
    engines.back()->restore(shards[i]);
    all_closed = std::min(all_closed, engines.back()->closed_rows().size());
  }
  const std::int64_t frontier =
      config_.first_epoch + static_cast<std::int64_t>(all_closed);
  const std::int64_t stored_frontier = checkpoint.at("merge_frontier").as_int();
  if (stored_frontier != frontier) {
    throw DataError("ClusterRuntime::restore: stored merge frontier " +
                    std::to_string(stored_frontier) +
                    " does not match the shards' frontier " +
                    std::to_string(frontier));
  }

  // Commit. Replay the closed rows into the merger silently — history
  // records only post-restore merges, exactly as a restored single engine
  // records only post-restore closes. The engines validated every row's
  // width, so no offer below can throw.
  replaying_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->engine = std::move(engines[i]);
    const auto rows = shards_[i]->engine->closed_rows();
    for (std::size_t j = 0; j < rows.size(); ++j) {
      merger_.offer(i, config_.first_epoch + static_cast<std::int64_t>(j),
                    std::vector<estimators::EpochCell>(rows[j].begin(),
                                                       rows[j].end()));
    }
    mirror_counters(*shards_[i]);
  }
  replaying_ = false;
  if (config_.journal != nullptr) {
    config_.journal->log(obs::EventKind::kRestore, -1,
                         obs::JournalEvent::kNoEpoch,
                         static_cast<double>(merger_.merge_frontier()));
  }
}

}  // namespace botmeter::cluster
