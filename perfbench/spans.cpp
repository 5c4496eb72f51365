#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Ids are process-wide: the daemon's two client threads record spans at
// the same time.
std::atomic<int> g_next_id{0};
std::atomic<int> g_next_request{0};
std::atomic<int> g_next_thread{0};

struct ThreadState {
  int thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  int span = -1;
  int request = -1;
  std::vector<SpanRecord> spans;
};
thread_local ThreadState t_state;

}  // namespace

Span::Span(const char* name) : saved_current_(t_state.span) {
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_state.span;
  rec_.request = t_state.request;
  rec_.thread = t_state.thread;
  t_state.span = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  rec_.end_ns = now_ns();
  t_state.span = saved_current_;
  t_state.spans.push_back(rec_);
}

RequestSpan::RequestSpan()
    : id_(g_next_request.fetch_add(1, std::memory_order_relaxed)),
      saved_request_(std::exchange(t_state.request, id_)),
      span_("request") {}

RequestSpan::~RequestSpan() { t_state.request = saved_request_; }

std::vector<SpanRecord> take_spans() {
  return std::exchange(t_state.spans, {});
}

std::map<std::string, double> self_time_us(const std::vector<SpanRecord>& spans,
                                           int first_request,
                                           int last_request) {
  const auto in_range = [&](const SpanRecord& s) {
    return s.request >= first_request && s.request <= last_request;
  };
  std::unordered_map<int, std::int64_t> child_ns;  // by parent span id
  for (const SpanRecord& s : spans) {
    if (in_range(s) && s.parent >= 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    if (!in_range(s)) continue;
    const auto it = child_ns.find(s.id);
    const std::int64_t children = it == child_ns.end() ? 0 : it->second;
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - children) / 1e3;
  }
  return self;
}

bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const SpanRecord& a,
                                          const SpanRecord& b) {
                                         return a.start_ns < b.start_ns;
                                       })->start_ns;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
