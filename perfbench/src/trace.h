#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// In-memory span recorder for the benchmark's traced runs. Spans are
/// opened and closed by the benchmark around its own calls into popp's
/// public entry points (never inside the library), kept in memory, and
/// written out once when the run ends. Single-threaded: spans nest by a
/// stack, so a span's parent is whatever span was open when it began.

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       ///< index into spans(), -1 for a root
  uint64_t request = 0;  ///< shared by every span of one operation
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when tracing is off). The
  /// request id is inherited from the enclosing span unless given.
  int Begin(const std::string& name, uint64_t request = 0);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds of each span name's self time (its duration minus the part
  /// covered by its children), over the spans of one request id, or of
  /// every request when `request` is 0.
  std::map<std::string, double> SelfSeconds(uint64_t request = 0) const;

  /// Total seconds of the spans named `name` of one request (0 = all).
  double TotalSeconds(const std::string& name, uint64_t request = 0) const;

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
