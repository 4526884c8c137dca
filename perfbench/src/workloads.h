#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

/// \file
/// The four workloads. `Gen*` writes the seed's inputs and reference
/// outputs into the current directory; `Run*` sets up, times, verifies and
/// prints the result. Both return the process exit code.

namespace perfbench {

int GenStreamCsv(const Args& args);
int RunStreamCsv(const Args& args);
int GenShardCols(const Args& args);
int RunShardCols(const Args& args);
int GenServeCols(const Args& args);
int RunServeCols(const Args& args);
int GenMineCols(const Args& args);
int RunMineCols(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
