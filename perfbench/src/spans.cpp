#include "spans.hpp"

#include <cstdio>

#include "support/json.hpp"

namespace perfbench {

std::int64_t SpanLog::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::open(const std::string& name, int op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order (ScopedSpan), so the closing one is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> SpanLog::self_ms(int op) const {
  std::map<std::string, double> out;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.op == op && s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != op) continue;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

double SpanLog::span_ms(int op, const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.op == op && s.name == name) return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return 0.0;
}

std::string SpanLog::chrome_json() const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"name\":",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += i ? ",\n" : "\n";
    out += buf;
    out += partita::support::json::quote(s.name);
    out += ",\"args\":{\"op\":" + std::to_string(s.op) + ",\"span\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  return out + "\n]}\n";
}

}  // namespace perfbench
