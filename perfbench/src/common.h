#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

/// \file
/// Shared pieces of the benchmark program: arguments, workload sizes,
/// statistics, the timed loop, output comparison, memory readings and the
/// result printer. Every workload runs in two processes: `gen` writes the
/// seed's inputs and reference outputs, `run` sets up, times, verifies and
/// prints. Keeping them apart means the generator's memory never shows in
/// the system-under-test's peak RSS.

namespace perfbench {

struct Args {
  std::string mode;      ///< gen | run
  std::string workload;  ///< stream-csv | shard-cols | serve-cols | mine-cols
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
  std::string source_id;  ///< git sha or source digest, for the metadata
};

/// Rows of the covertype-like table behind stream-csv, shard-cols and
/// mine-cols (10 attributes + class).
inline constexpr size_t kRows = 200000;
/// Rows of one serve-cols encode request.
inline constexpr size_t kServeRows = 50000;
/// Open-loop rate of serve-cols, requests per second (~60% of the
/// closed-loop capacity measured on a 4-core host).
inline constexpr double kServeOpenRate = 19.0;

/// min(4, hardware threads): the worker count of the parallel workloads.
size_t BenchThreads();

double Now();  ///< steady clock, seconds
double Median(std::vector<double> v);
/// Python `statistics.quantiles(v, n=4)` (exclusive method) quartiles.
void Quartiles(std::vector<double> v, double* q1, double* q3);
/// (q3 - q1) / median, 0 for fewer than two samples.
double IqrShare(const std::vector<double>& v);

/// The highest whole percentile with at least ten samples beyond it.
struct Tail {
  bool ok = false;
  int percentile = 0;
  double value = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> v);

/// VmHWM of a process (0 = this one), in MB; 0 when unreadable.
double PeakRssMb(pid_t pid = 0);
uint64_t FileBytes(const std::string& path);

/// True iff the concatenation of `parts` equals the file `expected`
/// byte for byte; `why` names the first difference. Streams in 1 MiB
/// blocks so the comparison adds nothing to peak memory.
bool SameBytes(const std::vector<std::string>& parts,
               const std::string& expected, std::string* why);

/// One measured operation: returns false (and fills `why`) when the
/// operation failed or its output did not verify. `seconds` receives the
/// timed part only.
using Op = std::function<bool(uint64_t rep, double* seconds, std::string* why)>;

/// One set-up: returns false (and fills `why`) on failure.
using Setup = std::function<bool(std::string* why)>;

struct Loop {
  std::vector<double> seconds;  ///< timed part of each verified operation
  std::vector<double> setup_seconds;  ///< set-ups timed between operations
  size_t attempted = 0;
  size_t failed = 0;
};

/// Runs `op` until `budget` seconds have passed (at least `min_reps`
/// times). Failures are counted and reported on stderr. When `setup` is
/// given it is timed `setup_reps` times before each operation, so set-up
/// samples spread over the same window as the operations.
void RunLoop(const Op& op, double budget, size_t min_reps, Loop* loop,
             uint64_t first_rep = 1, const Setup* setup = nullptr,
             size_t setup_reps = 0);

/// Times `setup` `reps` times, appending the seconds to `samples`; false
/// on any failure.
bool TimeSetup(const Setup& setup, size_t reps, std::vector<double>* samples);

/// Collects a run's metrics and prints them: one human-readable line per
/// metric (name, value, unit, repetitions, spread), the run metadata, then
/// as the last line the result JSON object.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void Set(const std::string& name, double value,
           const std::vector<double>& samples = {});
  void Info(const std::string& line) { info_.push_back(line); }
  void Input(size_t rows, uint64_t bytes) {
    rows_ = rows;
    bytes_ = bytes;
  }

  /// Prints everything; returns the process exit code (1 when any
  /// operation failed or a required metric is missing).
  int Emit(size_t attempted, size_t failed);

 private:
  const Args& args_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<std::string> info_;
  size_t rows_ = 0;
  uint64_t bytes_ = 0;
};

/// Prints the self-time table of a traced run: per span name, self
/// seconds per operation (median over the traced operations) and share of
/// the operation's wall time.
void PrintSelfTimes(const Tracer& tracer, const std::vector<uint64_t>& requests,
                    const std::string& root);

/// Median over `requests` of the total seconds of span `name`.
double MedianTotal(const Tracer& tracer, const std::vector<uint64_t>& requests,
                   const std::string& name);
/// Share (percent) of the root span that non-root self times cover,
/// median over `requests`.
double SelfCoveragePct(const Tracer& tracer,
                       const std::vector<uint64_t>& requests,
                       const std::string& root);

/// 100 * (traced - untraced) / untraced, on medians.
double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
