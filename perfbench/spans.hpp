// In-memory span recorder for the traced run.  Spans are recorded from the
// benchmark's own code around calls into the program's public functions;
// nothing inside src/ is instrumented.  Each span carries its name, start,
// end, parent span and request id; a thread keeps its spans in memory until
// the run takes them, and they are written out as Chrome trace events when
// the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;   // -1 = request root
  int request = -1;  // -1 = outside any request
  int thread = 0;
};

/// Opens a span for the scope; its parent is the innermost open span on
/// this thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  int saved_current_;
};

/// Opens the root span of a new request; ids are process-wide and
/// ascending, so one thread's consecutive requests form an id range.
class RequestSpan {
 public:
  RequestSpan();
  ~RequestSpan();
  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

  int id() const { return id_; }

 private:
  int id_;
  int saved_request_;
  Span span_;
};

/// Every span this thread recorded since it last called take_spans.
std::vector<SpanRecord> take_spans();

/// Self time per span name, summed over requests [first, last]: a span's
/// duration minus its children's durations.  A request's spans must all
/// come from one thread.
std::map<std::string, double> self_time_us(const std::vector<SpanRecord>& spans,
                                           int first_request,
                                           int last_request);

/// Writes `spans` as Chrome trace-event JSON; false when the file cannot be
/// written.
bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

}  // namespace perfbench
