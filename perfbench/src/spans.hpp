// Bench-side spans of the traced run.
//
// A span is one call into a layer, recorded around the call from the
// harness: name, start, end, the span that caused it, and the op (request)
// it belongs to. Spans are kept in memory and written once, as Chrome
// trace-event JSON that Perfetto opens directly. Per-layer metrics are
// self-times: a span's duration minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into SpanLog::spans(), -1 for an op's root
  int op = 0;       // spans of one op share this id
};

class SpanLog {
 public:
  /// Opens a span under the innermost open span (or as an op root).
  int open(const std::string& name, int op);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum over the op's spans of self time, per span name, in milliseconds.
  std::map<std::string, double> self_ms(int op) const;
  /// Duration of the op's span with this name (first match), ms; 0 if absent.
  double span_ms(int op, const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const;

 private:
  static std::int64_t now_ns();

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int op)
      : log_(log), index_(log.open(name, op)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
