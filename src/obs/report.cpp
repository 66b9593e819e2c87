#include "obs/report.hpp"

#include <fstream>
#include <utility>

#include "common/error.hpp"

namespace botmeter::obs {

namespace {

/// Fold (name, label, value) samples into the exported shape: plain series
/// become bare values, labeled families become label -> value objects. The
/// samples arrive sorted by (name, label), so a family's members are
/// contiguous and the output is deterministic.
template <typename SampleT, typename ToValueT>
json::Value fold_families(const std::vector<SampleT>& samples,
                          const ToValueT& to_value) {
  json::Object out;
  for (std::size_t i = 0; i < samples.size();) {
    const std::string& name = samples[i].name;
    std::size_t end = i;
    bool any_labeled = false;
    while (end < samples.size() && samples[end].name == name) {
      any_labeled |= !samples[end].label.empty();
      ++end;
    }
    if (!any_labeled) {
      // end - i == 1: labels are unique per (name, label) key, and the only
      // label in this run is "".
      out.emplace(name, to_value(samples[i].value));
    } else {
      json::Object family;
      for (std::size_t k = i; k < end; ++k) {
        family.emplace(samples[k].label.empty() ? "_total" : samples[k].label,
                       to_value(samples[k].value));
      }
      out.emplace(name, json::Value{std::move(family)});
    }
    i = end;
  }
  return json::Value{std::move(out)};
}

}  // namespace

json::Value metrics_json(const MetricsRegistry& registry) {
  const MetricsRegistry::Snapshot snap = registry.snapshot();
  json::Object out;
  out.emplace("counters",
              fold_families(snap.counters, [](std::uint64_t v) {
                return json::Value{static_cast<double>(v)};
              }));
  out.emplace("gauges", fold_families(snap.gauges, [](double v) {
                return json::Value{v};
              }));
  json::Object histograms;
  for (const MetricsRegistry::HistogramSample& sample : snap.histograms) {
    json::Object hist;
    json::Array bounds;
    for (double b : sample.upper_bounds) bounds.emplace_back(b);
    json::Array counts;
    for (std::uint64_t c : sample.counts) {
      counts.emplace_back(static_cast<double>(c));
    }
    hist.emplace("upper_bounds", json::Value{std::move(bounds)});
    hist.emplace("counts", json::Value{std::move(counts)});
    hist.emplace("count", json::Value{static_cast<double>(sample.count)});
    hist.emplace("sum", json::Value{sample.sum});
    histograms.emplace(sample.name, json::Value{std::move(hist)});
  }
  out.emplace("histograms", json::Value{std::move(histograms)});
  return json::Value{std::move(out)};
}

json::Value trace_json(const TraceSession& session) {
  json::Object out;
  json::Array phases;
  for (const TraceSession::PhaseSummary& row : session.summary()) {
    json::Object phase;
    phase.emplace("phase", json::Value{row.phase});
    phase.emplace("count", json::Value{static_cast<double>(row.count)});
    phase.emplace("total_ms", json::Value{row.total_ms});
    phase.emplace("mean_ms", json::Value{row.mean_ms});
    phase.emplace("min_ms", json::Value{row.min_ms});
    phase.emplace("p50_ms", json::Value{row.p50_ms});
    phase.emplace("max_ms", json::Value{row.max_ms});
    phases.emplace_back(std::move(phase));
  }
  out.emplace("phases", json::Value{std::move(phases)});
  json::Array spans;
  for (const TraceSession::Span& span : session.spans()) {
    json::Object s;
    s.emplace("phase", json::Value{span.phase});
    s.emplace("ms", json::Value{span.millis});
    spans.emplace_back(std::move(s));
  }
  out.emplace("spans", json::Value{std::move(spans)});
  return json::Value{std::move(out)};
}

json::Value report_json(const RunReport& report) {
  json::Object out;
  out.emplace("schema", json::Value{std::string("botmeter.run_report.v1")});
  out.emplace("tool", json::Value{report.tool});
  out.emplace("config", report.config);
  if (report.metrics != nullptr) {
    const json::Value metrics = metrics_json(*report.metrics);
    for (const auto& [key, value] : metrics.as_object()) {
      out.emplace(key, value);
    }
  }
  if (report.trace != nullptr) {
    out.emplace("trace", trace_json(*report.trace));
  }
  return json::Value{std::move(out)};
}

std::string export_json(const RunReport& report) {
  return json::write_pretty(report_json(report), 2);
}

void write_report_file(const RunReport& report, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw DataError("run report: cannot open " + path);
  file << export_json(report);
  if (!file.flush()) throw DataError("run report: failed writing " + path);
}

}  // namespace botmeter::obs
