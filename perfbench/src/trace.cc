#include "trace.h"

#include <chrono>
#include <fstream>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request != 0 || span.parent < 0
                     ? request
                     : spans_[span.parent].request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds(uint64_t request) const {
  // Children of one parent are sequential (single-threaded recorder), so
  // the covered part of a span is the sum of its children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (request != 0 && span.request != request) continue;
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

double Tracer::TotalSeconds(const std::string& name, uint64_t request) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    if (request != 0 && span.request != request) continue;
    total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
