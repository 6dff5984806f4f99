#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"

namespace cocg::obs {

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Histogram::record(double v) const {
  if (cell_ == nullptr || !enabled()) return;
  const auto& edges = cell_->edges;
  const std::size_t idx = static_cast<std::size_t>(
      std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
  ++cell_->buckets[idx];
  ++cell_->count;
  cell_->sum += v;
}

std::uint64_t Histogram::bucket(std::size_t i) const {
  if (cell_ == nullptr || i >= cell_->buckets.size()) return 0;
  return cell_->buckets[i];
}

Counter MetricsRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counter_cells_.emplace_back();
    it = counters_.emplace(name, &counter_cells_.back()).first;
  }
  return Counter(it->second);
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauge_cells_.emplace_back();
    it = gauges_.emplace(name, &gauge_cells_.back()).first;
  }
  return Gauge(it->second);
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> edges) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    COCG_EXPECTS_MSG(!edges.empty(), "histogram needs at least one edge");
    COCG_EXPECTS_MSG(std::is_sorted(edges.begin(), edges.end()) &&
                         std::adjacent_find(edges.begin(), edges.end()) ==
                             edges.end(),
                     "histogram edges must be strictly ascending");
    histogram_cells_.emplace_back();
    auto& cell = histogram_cells_.back();
    cell.buckets.assign(edges.size() + 1, 0);
    cell.edges = std::move(edges);
    it = histograms_.emplace(name, &cell).first;
  }
  return Histogram(it->second);
}

void MetricsRegistry::reset_values() {
  for (auto& c : counter_cells_) c.value = 0;
  for (auto& g : gauge_cells_) {
    g.value = 0.0;
    g.updates = 0;
  }
  for (auto& h : histogram_cells_) {
    std::fill(h.buckets.begin(), h.buckets.end(), 0);
    h.count = 0;
    h.sum = 0.0;
  }
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, cell] : other.counters_) {
    counter(name).cell_->value += cell->value;
  }
  for (const auto& [name, cell] : other.gauges_) {
    auto* dst = gauge(name).cell_;
    if (cell->updates > 0) dst->value = cell->value;
    dst->updates += cell->updates;
  }
  for (const auto& [name, cell] : other.histograms_) {
    auto* dst = histogram(name, cell->edges).cell_;
    COCG_EXPECTS_MSG(dst->edges == cell->edges,
                     "merge_from: histogram bucket layouts differ for \"" +
                         name + "\"");
    for (std::size_t i = 0; i < cell->buckets.size(); ++i) {
      dst->buckets[i] += cell->buckets[i];
    }
    dst->count += cell->count;
    dst->sum += cell->sum;
  }
}

bool MetricsRegistry::has_counter(const std::string& name) const {
  return counters_.count(name) != 0;
}

bool MetricsRegistry::has_gauge(const std::string& name) const {
  return gauges_.count(name) != 0;
}

bool MetricsRegistry::has_histogram(const std::string& name) const {
  return histograms_.count(name) != 0;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second->value : 0;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->value : 0.0;
}

std::uint64_t MetricsRegistry::total_recordings() const {
  std::uint64_t total = 0;
  for (const auto& c : counter_cells_) total += c.value;
  for (const auto& g : gauge_cells_) total += g.updates;
  for (const auto& h : histogram_cells_) total += h.count;
  return total;
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) out.push_back(name);
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  JsonObjectWriter top(os);
  {
    auto& s = top.raw_field("counters");
    JsonObjectWriter w(s);
    for (const auto& [name, cell] : counters_) w.field(name, cell->value);
  }
  {
    auto& s = top.raw_field("gauges");
    JsonObjectWriter w(s);
    for (const auto& [name, cell] : gauges_) w.field(name, cell->value);
  }
  {
    auto& s = top.raw_field("histograms");
    JsonObjectWriter w(s);
    for (const auto& [name, cell] : histograms_) {
      auto& hs = w.raw_field(name);
      JsonObjectWriter h(hs);
      h.field("count", cell->count);
      h.field("sum", cell->sum);
      {
        auto& es = h.raw_field("edges");
        es << '[';
        for (std::size_t i = 0; i < cell->edges.size(); ++i) {
          if (i != 0) es << ',';
          es << json_number(cell->edges[i]);
        }
        es << ']';
      }
      {
        auto& bs = h.raw_field("buckets");
        bs << '[';
        for (std::size_t i = 0; i < cell->buckets.size(); ++i) {
          if (i != 0) bs << ',';
          bs << cell->buckets[i];
        }
        bs << ']';
      }
    }
  }
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace cocg::obs
