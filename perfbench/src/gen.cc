// Input generation: every workload's inputs come from the seed, through
// the product's own CSV and popp-cols writers, before anything is timed.
// Reference outputs come from independent library paths (the in-memory
// batch Custodian, a direct tree mine, a per-request library encode).

#include <iostream>

#include "core/custodian.h"
#include "data/cols.h"
#include "data/csv.h"
#include "fault/file.h"
#include "synth/covtype_like.h"
#include "transform/compiled.h"
#include "transform/serialize.h"
#include "tree/serialize.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

popp::Dataset Table(uint64_t seed, size_t rows) {
  popp::Rng rng(seed);
  return popp::GenerateCovtypeLike(popp::DefaultCovtypeSpec(rows), rng);
}

popp::Custodian MakeCustodian(popp::Dataset data, uint64_t seed) {
  popp::CustodianOptions options;
  options.seed = seed;
  options.exec = popp::ExecPolicy{BenchThreads()};
  return popp::Custodian(std::move(data), options);
}

int Check(const popp::Status& status, const char* what) {
  if (status.ok()) return 0;
  std::cerr << "perfbench gen: " << what << ": " << status.ToString() << "\n";
  return 1;
}

// The batch release rendered as CSV: what stream-csv and the concatenated
// shard-cols files must equal.
int WriteBatchReference(const popp::Custodian& custodian) {
  return Check(popp::fault::WriteFileAtomic(
                   "expected.csv", popp::ToCsvString(custodian.Release())),
               "writing expected.csv");
}

}  // namespace

int GenStreamCsv(const Args& args) {
  popp::Dataset data = Table(args.seed, kRows);
  if (int rc = Check(popp::WriteCsv(data, "input.csv"), "writing input.csv")) {
    return rc;
  }
  return WriteBatchReference(MakeCustodian(std::move(data), args.seed));
}

int GenShardCols(const Args& args) {
  popp::Dataset data = Table(args.seed, kRows);
  if (int rc =
          Check(popp::WriteCols(data, "input.cols"), "writing input.cols")) {
    return rc;
  }
  return WriteBatchReference(MakeCustodian(std::move(data), args.seed));
}

int GenServeCols(const Args& args) {
  // One request dataset per tenant; the expected reply is the library
  // encode of that request: the daemon's fit discipline (a fresh Rng
  // seeded with the request seed) through the compiled kernel, framed as
  // popp-cols like the request.
  for (int tenant = 0; tenant < 2; ++tenant) {
    const std::string n = std::to_string(tenant);
    popp::Dataset data = Table(args.seed * 2 + tenant, kServeRows);
    if (int rc = Check(popp::WriteCols(data, "request" + n + ".cols"),
                       "writing a request")) {
      return rc;
    }
    popp::Rng rng(args.seed);
    const popp::TransformPlan plan = popp::TransformPlan::Create(
        data, popp::PiecewiseOptions{}, rng, popp::ExecPolicy::Serial());
    const popp::CompiledPlan compiled = popp::CompiledPlan::Compile(plan);
    const popp::Dataset released =
        compiled.EncodeDataset(data, popp::ExecPolicy::Serial());
    if (int rc = Check(popp::fault::WriteFileAtomic("expected" + n + ".cols",
                                                    popp::SerializeCols(released)),
                       "writing an expected reply")) {
      return rc;
    }
  }
  return 0;
}

int GenMineCols(const Args& args) {
  popp::Dataset data = Table(args.seed, kRows);
  if (int rc = Check(popp::WriteCols(data, "original.cols"),
                     "writing original.cols")) {
    return rc;
  }
  const popp::Custodian custodian = MakeCustodian(std::move(data), args.seed);
  // The stream-csv release of the same seed, handed to the provider as
  // popp-cols; the key stays with the custodian.
  if (int rc = Check(popp::WriteCols(custodian.Release(), "release.cols"),
                     "writing release.cols")) {
    return rc;
  }
  if (int rc = Check(popp::SavePlan(custodian.plan(), "release.key"),
                     "writing release.key")) {
    return rc;
  }
  // The paper's guarantee: the decoded tree must equal this one.
  return Check(popp::SaveTree(custodian.MineDirectly(), "direct.tree"),
               "writing direct.tree");
}

}  // namespace perfbench
