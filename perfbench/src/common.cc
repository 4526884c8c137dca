#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end metrics.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"}, {"rows_per_s", "rows/s"},
    {"peak_rss_mb", "MB"},  {"p50_ms", "ms"},
};

// Must list exactly BENCHMARK.json's per_layer metrics. A layer the
// workload never calls into reads 0.
constexpr MetricDef kPerLayer[] = {
    {"data.read_s", "s"},
    {"data.rows_read", "count"},
    {"stream.summarize_s", "s"},
    {"stream.encode_s", "s"},
    {"stream.write_s", "s"},
    {"stream.close_s", "s"},
    {"stream.chunks", "count"},
    {"stream.bytes_out", "bytes"},
    {"stream.ood_total", "count"},
    {"stream.refits", "count"},
    {"transform.fit_s", "s"},
    {"transform.compile_s", "s"},
    {"transform.kernel_rows_per_s", "rows/s"},
    {"transform.decode_tree_s", "s"},
    {"shard.count_s", "s"},
    {"shard.summarize_s", "s"},
    {"shard.merge_fit_s", "s"},
    {"shard.encode_s", "s"},
    {"shard.finalize_s", "s"},
    {"shard.worker_restarts", "count"},
    {"shard.released_bytes", "bytes"},
    {"tree.read_s", "s"},
    {"tree.sort_s", "s"},
    {"tree.scan_s", "s"},
    {"tree.partition_s", "s"},
    {"tree.subtree_s", "s"},
    {"tree.emit_s", "s"},
    {"tree.save_s", "s"},
    {"tree.nodes", "count"},
    {"tree.levels", "count"},
    {"serve.op_ms", "ms"},
    {"serve.parse_ms", "ms"},
    {"serve.kernel_ms", "ms"},
    {"serve.serialize_ms", "ms"},
    {"serve.frame_ms", "ms"},
    {"serve.wire_queue_ms", "ms"},
    {"serve.qps", "1/s"},
    {"serve.tail_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.shed_ratio", "ratio"},
    {"serve.gen_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.self_coverage_pct", "%"},
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

size_t BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Quartiles(std::vector<double> v, double* q1, double* q3) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 2) {
    *q1 = *q3 = n == 1 ? v[0] : 0;
    return;
  }
  // statistics.quantiles(method='exclusive'): position j/4 * (n + 1).
  auto at = [&](double pos) {
    const double p = std::clamp(pos, 1.0, static_cast<double>(n));
    const size_t lo = static_cast<size_t>(std::floor(p)) - 1;
    const size_t hi = std::min(lo + 1, n - 1);
    return v[lo] + (p - std::floor(p)) * (v[hi] - v[lo]);
  };
  *q1 = at(0.25 * (n + 1));
  *q3 = at(0.75 * (n + 1));
}

double IqrShare(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  double q1, q3;
  Quartiles(v, &q1, &q3);
  const double m = Median(v);
  return m == 0 ? 0 : (q3 - q1) / m;
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  for (int p = 99; p >= 50; --p) {
    // Nearest-rank percentile; `beyond` samples lie strictly above it.
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0 || rank > n) continue;
    const size_t beyond = n - rank;
    if (beyond >= 10) {
      tail.ok = true;
      tail.percentile = p;
      tail.value = v[rank - 1];
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

bool SameBytes(const std::vector<std::string>& parts,
               const std::string& expected, std::string* why) {
  std::ifstream want(expected, std::ios::binary);
  if (!want) {
    *why = "cannot open reference " + expected;
    return false;
  }
  std::vector<char> a(1 << 20), b(1 << 20);
  uint64_t offset = 0;
  for (const std::string& part : parts) {
    std::ifstream got(part, std::ios::binary);
    if (!got) {
      *why = "cannot open output " + part;
      return false;
    }
    for (;;) {
      got.read(a.data(), a.size());
      const std::streamsize n = got.gcount();
      if (n == 0) break;
      want.read(b.data(), n);
      if (want.gcount() != n || std::memcmp(a.data(), b.data(), n) != 0) {
        *why = "output differs from the reference near byte " +
               std::to_string(offset) + " (" + part + ")";
        return false;
      }
      offset += static_cast<uint64_t>(n);
    }
  }
  if (want.get() != std::char_traits<char>::eof()) {
    *why = "output is shorter than the reference (" + std::to_string(offset) +
           " bytes)";
    return false;
  }
  return true;
}

void RunLoop(const Op& op, double budget, size_t min_reps, Loop* loop,
             uint64_t first_rep, const Setup* setup, size_t setup_reps) {
  const double start = Now();
  uint64_t rep = first_rep;
  while (loop->attempted < min_reps || Now() - start < budget) {
    double seconds = 0;
    std::string why;
    ++loop->attempted;
    if (setup != nullptr &&
        !TimeSetup(*setup, setup_reps, &loop->setup_seconds)) {
      ++loop->failed;
      break;
    }
    if (op(rep++, &seconds, &why)) {
      loop->seconds.push_back(seconds);
    } else {
      ++loop->failed;
      std::cerr << "perfbench: operation failed: " << why << "\n";
      if (loop->failed >= 3) break;  // a broken build; do not spin
    }
  }
}

bool TimeSetup(const Setup& setup, size_t reps, std::vector<double>* samples) {
  for (size_t i = 0; i < reps; ++i) {
    std::string why;
    const double t0 = Now();
    if (!setup(&why)) {
      std::cerr << "perfbench: setup failed: " << why << "\n";
      return false;
    }
    samples->push_back(Now() - t0);
  }
  return true;
}

void Report::Set(const std::string& name, double value,
                 const std::vector<double>& samples) {
  values_[name] = value;
  if (!samples.empty()) samples_[name] = samples;
}

int Report::Emit(size_t attempted, size_t failed) {
  std::ostringstream meta;
  meta << "{\"workload\":\"" << args_.workload << "\",\"seed\":" << args_.seed
       << ",\"trace\":" << (args_.trace ? 1 : 0)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"bench_threads\":" << BenchThreads() << ",\"compiler\":\""
       << PERFBENCH_COMPILER << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
       << "\",\"source\":\"" << args_.source_id << "\",\"input_rows\":"
       << rows_ << ",\"input_bytes\":" << bytes_ << "}";
  std::cout << "meta " << meta.str() << "\n";
  for (const std::string& line : info_) std::cout << line << "\n";
  const double error_rate =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
  std::cout << "metric error_rate = " << Short(error_rate) << " ratio ("
            << failed << " failed of " << attempted << " attempted)\n";

  bool complete = true;
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def, bool required) {
    auto it = values_.find(def.name);
    double value = 0;
    if (it != values_.end() && std::isfinite(it->second)) {
      value = it->second;
    } else if (required) {
      std::cerr << "perfbench: metric " << def.name << " was not measured\n";
      complete = false;
    }
    std::cout << "metric " << def.name << " = " << Short(value) << " "
              << def.unit;
    auto s = samples_.find(def.name);
    if (s != samples_.end()) {
      std::cout << " (" << s->second.size() << " samples, iqr "
                << Short(100.0 * IqrShare(s->second)) << "% of median)";
    }
    std::cout << "\n";
    json << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
         << Num(value) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  };
  if (args_.trace) {
    for (const MetricDef& def : kPerLayer) emit(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failed == 0 && complete ? 0 : 1;
}

void PrintSelfTimes(const Tracer& tracer, const std::vector<uint64_t>& requests,
                    const std::string& root) {
  if (requests.empty()) return;
  std::map<std::string, std::vector<double>> per_name;
  std::vector<double> walls;
  for (uint64_t r : requests) {
    for (const auto& [name, s] : tracer.SelfSeconds(r)) per_name[name].push_back(s);
    walls.push_back(tracer.TotalSeconds(root, r));
  }
  const double wall = Median(walls);
  std::cout << "self-time table (" << requests.size()
            << " traced operations, median per operation; root " << root
            << " = " << Short(wall) << " s)\n";
  std::printf("  %-28s %12s %8s\n", "span", "self_s", "share");
  for (const auto& [name, v] : per_name) {
    const double m = Median(v);
    std::printf("  %-28s %12.6f %7.2f%%\n", name.c_str(), m,
                wall > 0 ? 100.0 * m / wall : 0.0);
  }
  std::fflush(stdout);
}

double MedianTotal(const Tracer& tracer, const std::vector<uint64_t>& requests,
                   const std::string& name) {
  std::vector<double> v;
  for (uint64_t r : requests) v.push_back(tracer.TotalSeconds(name, r));
  return Median(v);
}

double SelfCoveragePct(const Tracer& tracer,
                       const std::vector<uint64_t>& requests,
                       const std::string& root) {
  std::vector<double> v;
  for (uint64_t r : requests) {
    const double wall = tracer.TotalSeconds(root, r);
    double covered = 0;
    for (const auto& [name, s] : tracer.SelfSeconds(r)) {
      if (name != root) covered += s;
    }
    if (wall > 0) v.push_back(100.0 * covered / wall);
  }
  return Median(v);
}

double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced) {
  const double u = Median(untraced);
  return u > 0 ? 100.0 * (Median(traced) - u) / u : 0;
}

}  // namespace perfbench
