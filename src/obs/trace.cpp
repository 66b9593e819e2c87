#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace botmeter::obs {

namespace {

/// Per-thread nesting depth of live ScopedTimers. Tracked per thread, not
/// per (session, thread): interleaving timers of two sessions on one thread
/// shares the depth counter, which only ever makes nesting deeper than
/// strictly necessary — never wrong for a single session, the common case.
thread_local std::uint32_t t_span_depth = 0;

}  // namespace

double TraceSession::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void TraceSession::record(std::string_view phase, double millis) {
  record_span(phase, now_ms() - millis, millis, this_thread_ordinal(),
              t_span_depth);
}

void TraceSession::record_span(std::string_view phase, double start_ms,
                               double millis, std::uint32_t thread,
                               std::uint32_t depth) {
  if (ended()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{std::string(phase), millis, start_ms, thread, depth, 0, 0});
}

void TraceSession::record_flow_span(std::string_view phase, double start_ms,
                                    double millis, std::uint32_t thread,
                                    std::uint64_t flow_in,
                                    std::uint64_t flow_out) {
  if (ended()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(phase), millis, start_ms, thread, 0,
                        flow_in, flow_out});
}

std::uint64_t TraceSession::next_flow_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceSession::Span> TraceSession::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t TraceSession::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<TraceSession::PhaseSummary> TraceSession::summary() const {
  std::map<std::string, std::vector<double>> by_phase;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& span : spans_) {
      by_phase[span.phase].push_back(span.millis);
    }
  }
  std::vector<PhaseSummary> out;
  out.reserve(by_phase.size());
  for (const auto& [phase, samples] : by_phase) {
    PhaseSummary row;
    row.phase = phase;
    row.count = samples.size();
    for (double s : samples) row.total_ms += s;
    row.mean_ms = row.total_ms / static_cast<double>(samples.size());
    row.min_ms = percentile(samples, 0.0);
    row.p50_ms = percentile(samples, 50.0);
    row.max_ms = percentile(samples, 100.0);
    out.push_back(std::move(row));
  }
  return out;
}

void TraceSession::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

ScopedTimer::ScopedTimer(TraceSession* session, std::string_view phase)
    : session_(session != nullptr && !session->ended() ? session : nullptr) {
  if (session_ == nullptr) return;
  phase_ = phase;
  start_ = std::chrono::steady_clock::now();
  start_ms_ = session_->now_ms();
  depth_ = t_span_depth++;
}

ScopedTimer::ScopedTimer(ScopedTimer&& other) noexcept
    : session_(other.session_), phase_(std::move(other.phase_)),
      start_(other.start_), start_ms_(other.start_ms_), depth_(other.depth_) {
  other.session_ = nullptr;
}

ScopedTimer& ScopedTimer::operator=(ScopedTimer&& other) noexcept {
  if (this != &other) {
    (void)stop();
    session_ = other.session_;
    phase_ = std::move(other.phase_);
    start_ = other.start_;
    start_ms_ = other.start_ms_;
    depth_ = other.depth_;
    other.session_ = nullptr;
  }
  return *this;
}

double ScopedTimer::stop() {
  if (session_ == nullptr) return 0.0;
  // The depth counter must unwind even when the move crossed threads (it
  // normally never does; ScopedTimer is a lexical-scope guard).
  if (t_span_depth > 0) --t_span_depth;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const double millis =
      std::chrono::duration<double, std::milli>(elapsed).count();
  session_->record_span(phase_, start_ms_, millis, this_thread_ordinal(),
                        depth_);
  session_ = nullptr;
  return millis;
}

std::string format_phase_table(const TraceSession& session) {
  const std::vector<TraceSession::PhaseSummary> rows = session.summary();
  if (rows.empty()) return {};
  std::size_t width = 5;  // "phase"
  for (const auto& row : rows) width = std::max(width, row.phase.size());
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %8s %12s %10s %10s %10s\n",
                static_cast<int>(width), "phase", "count", "total_ms",
                "mean_ms", "p50_ms", "max_ms");
  out += line;
  for (const auto& row : rows) {
    std::snprintf(line, sizeof(line), "%-*s %8llu %12.3f %10.3f %10.3f %10.3f\n",
                  static_cast<int>(width), row.phase.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms,
                  row.mean_ms, row.p50_ms, row.max_ms);
    out += line;
  }
  return out;
}

json::Value chrome_trace_json(const TraceSession& session) {
  const std::vector<TraceSession::Span> spans = session.spans();

  json::Array events;
  std::set<std::uint32_t> threads;
  for (const TraceSession::Span& span : spans) threads.insert(span.thread);

  // One thread_name metadata event per track, so Perfetto shows "main" /
  // "worker-k" instead of bare ordinals.
  for (const std::uint32_t tid : threads) {
    json::Object args;
    args.emplace("name", json::Value(thread_label(tid)));
    json::Object meta;
    meta.emplace("name", json::Value(std::string("thread_name")));
    meta.emplace("ph", json::Value(std::string("M")));
    meta.emplace("pid", json::Value(1.0));
    meta.emplace("tid", json::Value(static_cast<double>(tid)));
    meta.emplace("args", json::Value(std::move(args)));
    events.emplace_back(std::move(meta));
  }

  for (const TraceSession::Span& span : spans) {
    json::Object event;
    event.emplace("cat", json::Value(std::string("botmeter")));
    event.emplace("name", json::Value(span.phase));
    event.emplace("ph", json::Value(std::string("X")));
    event.emplace("pid", json::Value(1.0));
    event.emplace("tid", json::Value(static_cast<double>(span.thread)));
    // trace_event timestamps are microseconds.
    event.emplace("ts", json::Value(span.start_ms * 1000.0));
    event.emplace("dur", json::Value(span.millis * 1000.0));
    events.emplace_back(std::move(event));

    // Flow halves: the start anchors at the producing span's END, the
    // finish (binding point "e" = enclosing slice) at the consuming span's
    // START — so the viewer draws the arrow across threads in time order.
    if (span.flow_out != 0) {
      json::Object flow;
      flow.emplace("cat", json::Value(std::string("botmeter.flow")));
      flow.emplace("name", json::Value(std::string("flow")));
      flow.emplace("ph", json::Value(std::string("s")));
      flow.emplace("id", json::Value(static_cast<double>(span.flow_out)));
      flow.emplace("pid", json::Value(1.0));
      flow.emplace("tid", json::Value(static_cast<double>(span.thread)));
      flow.emplace("ts", json::Value((span.start_ms + span.millis) * 1000.0));
      events.emplace_back(std::move(flow));
    }
    if (span.flow_in != 0) {
      json::Object flow;
      flow.emplace("bp", json::Value(std::string("e")));
      flow.emplace("cat", json::Value(std::string("botmeter.flow")));
      flow.emplace("name", json::Value(std::string("flow")));
      flow.emplace("ph", json::Value(std::string("f")));
      flow.emplace("id", json::Value(static_cast<double>(span.flow_in)));
      flow.emplace("pid", json::Value(1.0));
      flow.emplace("tid", json::Value(static_cast<double>(span.thread)));
      flow.emplace("ts", json::Value(span.start_ms * 1000.0));
      events.emplace_back(std::move(flow));
    }
  }

  json::Object root;
  root.emplace("displayTimeUnit", json::Value(std::string("ms")));
  root.emplace("traceEvents", json::Value(std::move(events)));
  return json::Value(std::move(root));
}

void write_chrome_trace_file(const TraceSession& session,
                             const std::string& path) {
  std::ofstream file(path);
  if (!file) throw DataError("chrome trace: cannot open " + path);
  file << json::write_pretty(chrome_trace_json(session));
  if (!file.flush()) throw DataError("chrome trace: failed writing " + path);
}

}  // namespace botmeter::obs
