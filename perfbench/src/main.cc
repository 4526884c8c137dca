// popp_perfbench — the benchmark program. Usage:
//
//   popp_perfbench gen --workload W --seed N
//   popp_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      [--trace-out FILE] [--source ID]
//
// Both modes work in the current directory: `gen` writes the inputs and
// reference outputs there, `run` reads them, measures, verifies every
// output, and prints the result (last line: one JSON object). perfbench/
// run.py builds this program and chains the two modes.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "workloads.h"

namespace {

struct Workload {
  int (*gen)(const perfbench::Args&);
  int (*run)(const perfbench::Args&);
};

const std::map<std::string, Workload>& Workloads() {
  static const std::map<std::string, Workload> workloads = {
      {"stream-csv", {perfbench::GenStreamCsv, perfbench::RunStreamCsv}},
      {"shard-cols", {perfbench::GenShardCols, perfbench::RunShardCols}},
      {"serve-cols", {perfbench::GenServeCols, perfbench::RunServeCols}},
      {"mine-cols", {perfbench::GenMineCols, perfbench::RunMineCols}},
  };
  return workloads;
}

int Usage() {
  std::cerr << "usage: popp_perfbench gen|run --workload "
               "stream-csv|shard-cols|serve-cols|mine-cols --seed N "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] [--source ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  perfbench::Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--source") {
      args.source_id = value;
    } else {
      return Usage();
    }
  }
  const auto it = Workloads().find(args.workload);
  if (it == Workloads().end() || args.seconds <= 0) return Usage();
  if (args.mode == "gen") return it->second.gen(args);
  if (args.mode == "run") return it->second.run(args);
  return Usage();
}
