#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "support/assert.hpp"
#include "support/mutex.hpp"

namespace ais::obs {
namespace {

/// Separators for the registry's series key: below every printable char, so
/// keys sort by (name, labels) and one family's series stay contiguous.
constexpr char kNameSep = '\x1f';
constexpr char kLabelSep = '\x1e';

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "counter";
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "ais_metric";
  if (out[0] >= '0' && out[0] <= '9') out.insert(0, "ais_");
  return out;
}

std::string prometheus_label_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

struct MetricRegistry::Impl {
  struct Series {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    MetricType type = MetricType::kCounter;
    // Exactly one of these is non-null, per `type`; separate allocations
    // keep the common counter series from paying a Histogram's ~1 KiB.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
  };

  mutable Mutex mu;
  /// Node-stable: Series objects never move or die, so handles (and the
  /// crash path's walk) stay valid forever.
  std::map<std::string, std::unique_ptr<Series>> series AIS_GUARDED_BY(mu);

  Series* get(std::string_view name, const MetricLabel* labels,
              std::size_t n_labels, MetricType type) AIS_EXCLUDES(mu) {
    // Sort the (at most two) labels by key so {a,b} == {b,a}.
    MetricLabel sorted[2];
    for (std::size_t i = 0; i < n_labels; ++i) sorted[i] = labels[i];
    if (n_labels == 2 && sorted[1].first < sorted[0].first) {
      std::swap(sorted[0], sorted[1]);
    }
    std::string key;
    key.reserve(name.size() + 16);
    key.append(name);
    key += kNameSep;
    for (std::size_t i = 0; i < n_labels; ++i) {
      key.append(sorted[i].first);
      key += kLabelSep;
      key.append(sorted[i].second);
      key += kLabelSep;
    }

    MutexLock lock(mu);
    auto it = series.find(key);
    if (it == series.end()) {
      auto s = std::make_unique<Series>();
      s->name = std::string(name);
      for (std::size_t i = 0; i < n_labels; ++i) {
        s->labels.emplace_back(std::string(sorted[i].first),
                               std::string(sorted[i].second));
      }
      s->type = type;
      switch (type) {
        case MetricType::kCounter:
          s->counter = std::make_unique<Counter>();
          break;
        case MetricType::kGauge: s->gauge = std::make_unique<Gauge>(); break;
        case MetricType::kHistogram:
          s->hist = std::make_unique<Histogram>();
          break;
      }
      it = series.emplace(std::move(key), std::move(s)).first;
    }
    AIS_CHECK(it->second->type == type,
              "metric '" + it->second->name + "' re-registered as a different type");
    return it->second.get();
  }
};

MetricRegistry::MetricRegistry() : impl_(new Impl) {}

MetricRegistry::~MetricRegistry() { delete impl_; }

namespace {
// Published by global() so the crash path can reach the registry without
// risking an allocating first call from inside a signal handler.
std::atomic<MetricRegistry*> g_global_registry{nullptr};
}  // namespace

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry* r = [] {
    auto* created = new MetricRegistry;  // leaked: usable during teardown
    g_global_registry.store(created, std::memory_order_release);
    return created;
  }();
  return *r;
}

MetricRegistry* MetricRegistry::global_if_created() {
  return g_global_registry.load(std::memory_order_acquire);
}

Counter* MetricRegistry::counter(std::string_view name) {
  return impl_->get(name, nullptr, 0, MetricType::kCounter)->counter.get();
}

Counter* MetricRegistry::counter(std::string_view name, MetricLabel l0) {
  return impl_->get(name, &l0, 1, MetricType::kCounter)->counter.get();
}

Counter* MetricRegistry::counter(std::string_view name, MetricLabel l0,
                                 MetricLabel l1) {
  const MetricLabel ls[2] = {l0, l1};
  return impl_->get(name, ls, 2, MetricType::kCounter)->counter.get();
}

Gauge* MetricRegistry::gauge(std::string_view name) {
  return impl_->get(name, nullptr, 0, MetricType::kGauge)->gauge.get();
}

Gauge* MetricRegistry::gauge(std::string_view name, MetricLabel l0) {
  return impl_->get(name, &l0, 1, MetricType::kGauge)->gauge.get();
}

Gauge* MetricRegistry::gauge(std::string_view name, MetricLabel l0,
                             MetricLabel l1) {
  const MetricLabel ls[2] = {l0, l1};
  return impl_->get(name, ls, 2, MetricType::kGauge)->gauge.get();
}

Histogram* MetricRegistry::histogram(std::string_view name) {
  return impl_->get(name, nullptr, 0, MetricType::kHistogram)->hist.get();
}

Histogram* MetricRegistry::histogram(std::string_view name, MetricLabel l0) {
  return impl_->get(name, &l0, 1, MetricType::kHistogram)->hist.get();
}

Histogram* MetricRegistry::histogram(std::string_view name, MetricLabel l0,
                                     MetricLabel l1) {
  const MetricLabel ls[2] = {l0, l1};
  return impl_->get(name, ls, 2, MetricType::kHistogram)->hist.get();
}

std::vector<MetricSeries> MetricRegistry::snapshot() const {
  std::vector<MetricSeries> out;
  MutexLock lock(impl_->mu);
  out.reserve(impl_->series.size());
  for (const auto& [key, s] : impl_->series) {
    MetricSeries row;
    row.name = s->name;
    row.labels = s->labels;
    row.type = s->type;
    switch (s->type) {
      case MetricType::kCounter: row.counter_value = s->counter->value(); break;
      case MetricType::kGauge: row.gauge_value = s->gauge->value(); break;
      case MetricType::kHistogram: row.hist = s->hist->snapshot(); break;
    }
    out.push_back(std::move(row));
  }
  return out;  // map order is already (name, labels)
}

namespace {

std::string label_block(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += prometheus_name(labels[i].first);
    out += "=\"";
    out += prometheus_label_escape(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Labels with one extra `le` pair appended (histogram bucket rows).
std::string bucket_label_block(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& le) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += prometheus_name(k);
    out += "=\"";
    out += prometheus_label_escape(v);
    out += "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

}  // namespace

void MetricRegistry::write_prometheus(std::ostream& os) const {
  const std::vector<MetricSeries> series = snapshot();
  std::string open_family;
  for (const MetricSeries& s : series) {
    const std::string fam = prometheus_name(s.name);
    if (fam != open_family) {
      os << "# TYPE " << fam << " " << type_name(s.type) << "\n";
      open_family = fam;
    }
    if (s.type == MetricType::kCounter) {
      os << fam << label_block(s.labels) << " " << s.counter_value << "\n";
    } else if (s.type == MetricType::kGauge) {
      os << fam << label_block(s.labels) << " " << s.gauge_value << "\n";
    } else {
      // Cumulative buckets up to the last occupied bound, then +Inf.
      std::size_t last = 0;
      for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
        if (s.hist.counts[i] != 0) last = i + 1;
      }
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < last; ++i) {
        cum += s.hist.counts[i];
        os << fam << "_bucket"
           << bucket_label_block(s.labels,
                                 std::to_string(kHistogramBucketBounds[i]))
           << " " << cum << "\n";
      }
      os << fam << "_bucket" << bucket_label_block(s.labels, "+Inf") << " "
         << s.hist.count << "\n";
      os << fam << "_sum" << label_block(s.labels) << " " << s.hist.sum
         << "\n";
      os << fam << "_count" << label_block(s.labels) << " " << s.hist.count
         << "\n";
    }
  }
}

std::string MetricRegistry::prometheus_text() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

void MetricRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": 2,\n  \"metrics\": [";
  const std::vector<MetricSeries> series = snapshot();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const MetricSeries& s = series[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(s.name) << "\", \"type\": \"" << type_name(s.type)
       << "\", \"labels\": {";
    for (std::size_t j = 0; j < s.labels.size(); ++j) {
      os << (j == 0 ? "" : ", ") << "\"" << json_escape(s.labels[j].first)
         << "\": \"" << json_escape(s.labels[j].second) << "\"";
    }
    os << "}";
    if (s.type == MetricType::kCounter) {
      os << ", \"value\": " << s.counter_value;
    } else if (s.type == MetricType::kGauge) {
      os << ", \"value\": " << s.gauge_value;
    } else {
      os << ", \"count\": " << s.hist.count << ", \"sum\": " << s.hist.sum
         << ", \"max\": " << s.hist.max << ", \"p50\": "
         << s.hist.quantile(0.5) << ", \"p90\": " << s.hist.quantile(0.9)
         << ", \"p99\": " << s.hist.quantile(0.99) << ", \"buckets\": [";
      bool first_bucket = true;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        if (s.hist.counts[b] == 0) continue;
        os << (first_bucket ? "" : ", ") << "{\"le\": ";
        if (b + 1 == kHistogramBuckets) {
          os << "\"+Inf\"";
        } else {
          os << kHistogramBucketBounds[b];
        }
        os << ", \"count\": " << s.hist.counts[b] << "}";
        first_bucket = false;
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

std::string MetricRegistry::json_text() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::string MetricRegistry::ascii_report() const {
  std::ostringstream os;
  const std::vector<MetricSeries> series = snapshot();
  bool any_scalar = false;
  for (const MetricSeries& s : series) {
    if (s.type != MetricType::kHistogram) any_scalar = true;
  }
  if (any_scalar) {
    os << "metrics:\n";
    for (const MetricSeries& s : series) {
      if (s.type == MetricType::kHistogram) continue;
      os << "  " << s.name << label_block(s.labels) << " = ";
      if (s.type == MetricType::kCounter) os << s.counter_value;
      else os << s.gauge_value;
      os << "\n";
    }
  }
  for (const MetricSeries& s : series) {
    if (s.type != MetricType::kHistogram || s.hist.count == 0) continue;
    os << s.name << label_block(s.labels) << ": count=" << s.hist.count
       << " sum=" << s.hist.sum << " max=" << s.hist.max
       << " p50=" << s.hist.quantile(0.5) << " p90=" << s.hist.quantile(0.9)
       << " p99=" << s.hist.quantile(0.99) << "\n";
    std::uint64_t peak = 0;
    for (const std::uint64_t c : s.hist.counts) peak = std::max(peak, c);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (s.hist.counts[b] == 0) continue;
      constexpr int kBarWidth = 40;
      const int bar = std::max<int>(
          1, static_cast<int>((s.hist.counts[b] * kBarWidth) / peak));
      char bound[24];
      if (b + 1 == kHistogramBuckets) {
        std::snprintf(bound, sizeof bound, "%12s", "+Inf");
      } else {
        std::snprintf(bound, sizeof bound, "%12llu",
                      static_cast<unsigned long long>(
                          kHistogramBucketBounds[b]));
      }
      os << "  le " << bound << " | " << std::string(bar, '#') << " "
         << s.hist.counts[b] << "\n";
    }
  }
  return os.str();
}

void MetricRegistry::reset_values() {
  MutexLock lock(impl_->mu);
  for (auto& [key, s] : impl_->series) {
    switch (s->type) {
      case MetricType::kCounter: s->counter->reset_value(); break;
      case MetricType::kGauge: s->gauge->reset_value(); break;
      case MetricType::kHistogram: s->hist->reset_values(); break;
    }
  }
}

bool MetricRegistry::try_visit(void (*fn)(void* ctx, const char* name,
                                          const char* labels, MetricType type,
                                          const void* series),
                               void* ctx) const {
  if (!impl_->mu.try_lock()) return false;
  for (const auto& [key, s] : impl_->series) {
    static thread_local char label_buf[256];
    label_buf[0] = '\0';
    std::size_t off = 0;
    for (const auto& [k, v] : s->labels) {
      const int n = std::snprintf(label_buf + off, sizeof label_buf - off,
                                  "%s%s=%s", off > 0 ? "," : "", k.c_str(),
                                  v.c_str());
      if (n < 0) break;
      off += static_cast<std::size_t>(n);
      if (off >= sizeof label_buf) break;
    }
    const void* ptr = nullptr;
    switch (s->type) {
      case MetricType::kCounter: ptr = s->counter.get(); break;
      case MetricType::kGauge: ptr = s->gauge.get(); break;
      case MetricType::kHistogram: ptr = s->hist.get(); break;
    }
    fn(ctx, s->name.c_str(), label_buf, s->type, ptr);
  }
  impl_->mu.unlock();
  return true;
}

}  // namespace ais::obs
