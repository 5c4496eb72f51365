#include "obs/process_stats.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/metrics.hpp"

namespace ais::obs {

std::int64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss);  // already bytes
#else
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void record_process_gauges() {
  MetricRegistry::global().gauge("mem_peak_rss_bytes")
      ->set_max(peak_rss_bytes());
}

void record_arena_high_water(std::string_view name, std::int64_t bytes) {
  arena_high_water_gauge(name)->set_max(bytes);
}

Gauge* arena_high_water_gauge(std::string_view name) {
  return MetricRegistry::global().gauge("arena_high_water", {"arena", name});
}

}  // namespace ais::obs
