// mine-cols: the provider and decode side. Read the stream-csv release as
// popp-cols, mine it with the default frontier engine at min(4, nproc)
// threads, save the tree, then decode it with the custodian's key. The
// tree layers do nearly all the work; no transform kernel or CSV
// formatter runs.

#include <iostream>

#include "data/cols.h"
#include "stream/cols_io.h"
#include "transform/serialize.h"
#include "transform/tree_decode.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "tree/serialize.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kRoot = "mine-cols.mine_decode";

}  // namespace

int RunMineCols(const Args& args) {
  Report report(args);
  report.Input(kRows, FileBytes("release.cols"));

  auto direct = popp::LoadTree("direct.tree");  // the reference, untimed
  if (!direct.ok()) {
    std::cerr << "perfbench: " << direct.status().ToString() << "\n";
    return 1;
  }

  // Set-up: what the custodian and provider hold before the first mine —
  // the validated release container, the key and the original table.
  popp::TransformPlan key;
  popp::Dataset original;
  const Setup setup = [&](std::string* why) {
    auto reader = popp::stream::MakeChunkReader("release.cols");
    if (!reader.ok()) return *why = reader.status().ToString(), false;
    auto chunk = reader.value()->NextChunk(4096);
    if (!chunk.ok() || chunk.value().NumRows() == 0) {
      *why = "release.cols yields no first chunk";
      return false;
    }
    auto plan = popp::LoadPlan("release.key");
    if (!plan.ok()) return *why = plan.status().ToString(), false;
    auto data = popp::ReadCols("original.cols");
    if (!data.ok()) return *why = data.status().ToString(), false;
    key = std::move(plan).value();
    original = std::move(data).value();
    return true;
  };
  std::vector<double> setup_samples;
  if (!TimeSetup(setup, 2, &setup_samples)) return 1;

  const popp::ExecPolicy exec{BenchThreads()};
  Tracer tracer(args.trace);
  std::vector<popp::BuildStats> stats_of_traced;
  std::vector<uint64_t> traced;
  std::vector<double> traced_s, untraced_s;

  auto op = [&](uint64_t rep, double* seconds, std::string* why) {
    const bool trace_this = args.trace && rep % 2 == 1;
    Tracer off(false);
    Tracer& t = trace_this ? tracer : off;
    popp::BuildStats stats;
    popp::DecisionTree decoded;
    popp::Status saved;
    const double t0 = Now();
    {
      Scope root(t, kRoot, rep);
      auto released = [&] {
        Scope span(t, "tree.read");
        return popp::ReadCols("release.cols");
      }();
      if (!released.ok()) return *why = released.status().ToString(), false;
      popp::DecisionTree tprime = [&] {
        Scope span(t, "tree.build");
        return popp::DecisionTreeBuilder(popp::BuildOptions{}, exec)
            .Build(released.value(), &stats);
      }();
      {
        Scope span(t, "tree.save");
        saved = popp::SaveTree(tprime, "tprime.tree");
      }
      Scope span(t, "transform.decode_tree");
      decoded = popp::DecodeTreeWithData(tprime, key, original);
    }
    *seconds = Now() - t0;
    if (!saved.ok()) return *why = saved.ToString(), false;
    const std::string diff = popp::DescribeDifference(direct.value(), decoded);
    if (!diff.empty()) {
      *why = "decoded tree differs from the tree mined on the original: " + diff;
      return false;
    }
    if (trace_this) {
      traced.push_back(rep);
      traced_s.push_back(*seconds);
      stats_of_traced.push_back(stats);
    } else if (rep > 0) {
      untraced_s.push_back(*seconds);
    }
    return true;
  };

  // One untimed warm-up: first-touch page faults of the builder's arenas.
  Loop warm;
  RunLoop(op, 0, 1, &warm, 0);
  Loop loop;
  RunLoop(op, args.seconds, args.trace ? 2 : 3, &loop, 1, &setup, 1);
  setup_samples.insert(setup_samples.end(), loop.setup_seconds.begin(),
                       loop.setup_seconds.end());
  loop.attempted += warm.attempted;
  loop.failed += warm.failed;

  if (!args.trace) {
    const double wall = Median(loop.seconds);
    report.Set("setup_s", Median(setup_samples), setup_samples);
    report.Set("wall_s", wall, loop.seconds);
    report.Set("rows_per_s", wall > 0 ? kRows / wall : 0);
    report.Set("peak_rss_mb", PeakRssMb());
    report.Set("p50_ms", 1000.0 * wall);
  } else if (!stats_of_traced.empty()) {
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const auto& s : stats_of_traced) v.push_back(static_cast<double>(s.*field));
      return Median(v);
    };
    using B = popp::BuildStats;
    report.Set("tree.read_s", MedianTotal(tracer, traced, "tree.read"));
    report.Set("tree.sort_s", med(&B::sort_s));
    report.Set("tree.scan_s", med(&B::scan_s));
    report.Set("tree.partition_s", med(&B::partition_s));
    report.Set("tree.subtree_s", med(&B::subtree_s));
    report.Set("tree.emit_s", med(&B::emit_s));
    report.Set("tree.save_s", MedianTotal(tracer, traced, "tree.save"));
    report.Set("tree.nodes", med(&B::nodes));
    report.Set("tree.levels", med(&B::levels));
    report.Set("transform.decode_tree_s",
               MedianTotal(tracer, traced, "transform.decode_tree"));
    report.Set("trace.overhead_pct", OverheadPct(untraced_s, traced_s));
    report.Set("trace.self_coverage_pct",
               SelfCoveragePct(tracer, traced, kRoot));
    PrintSelfTimes(tracer, traced, kRoot);
    std::cout << "tree.build self time splits (BuildStats): sort "
              << med(&B::sort_s) << " s, scan " << med(&B::scan_s)
              << " s, partition " << med(&B::partition_s) << " s, subtree "
              << med(&B::subtree_s) << " s, emit " << med(&B::emit_s)
              << " s\n";
    if (!args.trace_out.empty()) tracer.WriteJsonl(args.trace_out);
  }
  return report.Emit(loop.attempted, loop.failed);
}

}  // namespace perfbench
