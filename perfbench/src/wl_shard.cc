// shard-cols: ShardedCustodian::Release on the popp-cols table in thread
// mode, shards = threads = min(4, nproc). Reading popp-cols is nearly free,
// so the wall is set by the parallel per-shard encode + format + write and
// the serial merge/fit/finalize.

#include <iostream>

#include "shard/meta_manifest.h"
#include "shard/pipeline.h"
#include "stream/cols_io.h"
#include "transform/serialize.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kRoot = "shard-cols.release";

std::vector<std::string> ShardFiles(size_t shards) {
  std::vector<std::string> files;
  for (size_t k = 0; k < shards; ++k) {
    files.push_back("release.csv.shard" + std::to_string(k));
  }
  return files;
}

}  // namespace

int RunShardCols(const Args& args) {
  Report report(args);
  report.Input(kRows, FileBytes("input.cols"));

  // Set-up: open the container (popp-cols validates every extent's CRC on
  // open) and take its first chunk.
  const Setup setup = [](std::string* why) {
    auto reader = popp::stream::MakeChunkReader("input.cols");
    if (!reader.ok()) return *why = reader.status().ToString(), false;
    auto chunk = reader.value()->NextChunk(popp::shard::ShardOptions{}.chunk_rows);
    if (!chunk.ok() || chunk.value().NumRows() == 0) {
      *why = "input.cols yields no first chunk";
      return false;
    }
    return true;
  };
  std::vector<double> setup_samples;
  if (!TimeSetup(setup, 3, &setup_samples)) return 1;

  const size_t shards = BenchThreads();
  Tracer tracer(args.trace);
  std::vector<popp::shard::ShardStats> stats_of_traced;
  std::vector<uint64_t> traced;
  std::vector<double> traced_s, untraced_s;

  auto op = [&](uint64_t rep, double* seconds, std::string* why) {
    const bool trace_this = args.trace && rep % 2 == 1;
    Tracer off(false);
    Tracer& t = trace_this ? tracer : off;
    popp::shard::ShardOptions options;
    options.num_shards = shards;
    options.workers_mode = popp::shard::WorkersMode::kThread;
    options.exec = popp::ExecPolicy{shards};
    options.seed = args.seed;
    popp::shard::ShardStats stats;

    const double t0 = Now();
    popp::Status saved;
    {
      Scope root(t, kRoot, rep);
      auto plan = [&] {
        Scope span(t, "shard.release");
        return popp::shard::ShardedCustodian::Release(
            "input.cols", "release.csv", options, &stats);
      }();
      if (!plan.ok()) return *why = plan.status().ToString(), false;
      Scope span(t, "transform.save_key");
      saved = popp::SavePlan(plan.value(), "release.key");
    }
    *seconds = Now() - t0;
    if (!saved.ok()) return *why = saved.ToString(), false;
    if (!SameBytes(ShardFiles(shards), "expected.csv", why)) return false;
    const popp::Status verified =
        popp::shard::VerifyShardedRelease("release.csv");
    if (!verified.ok()) return *why = verified.ToString(), false;
    if (trace_this) {
      traced.push_back(rep);
      traced_s.push_back(*seconds);
      stats_of_traced.push_back(stats);
    } else if (rep > 0) {
      untraced_s.push_back(*seconds);
    }
    return true;
  };

  // A first, untimed release: on a 4-core host, at 500k rows, the cold first
  // run (page cache, allocator, thread start) took 2.39 s against 1.34-1.48 s
  // warm.
  Loop warm;
  RunLoop(op, 0, 1, &warm, 0);
  Loop loop;
  RunLoop(op, args.seconds, args.trace ? 2 : 3, &loop, 1, &setup, 2);
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
    using S = popp::shard::ShardStats;
    report.Set("shard.count_s", med(&S::count_seconds));
    report.Set("shard.summarize_s", med(&S::summarize_seconds));
    report.Set("shard.merge_fit_s", med(&S::merge_fit_seconds));
    report.Set("shard.encode_s", med(&S::encode_seconds));
    report.Set("shard.finalize_s", med(&S::finalize_seconds));
    report.Set("shard.worker_restarts", med(&S::worker_restarts));
    report.Set("shard.released_bytes", med(&S::released_bytes));
    report.Set("trace.overhead_pct", OverheadPct(untraced_s, traced_s));
    report.Set("trace.self_coverage_pct",
               SelfCoveragePct(tracer, traced, kRoot));
    PrintSelfTimes(tracer, traced, kRoot);
    std::cout << "shard.release self time splits (ShardStats): count "
              << med(&S::count_seconds) << " s, summarize "
              << med(&S::summarize_seconds) << " s, merge+fit "
              << med(&S::merge_fit_seconds) << " s, encode "
              << med(&S::encode_seconds) << " s, finalize "
              << med(&S::finalize_seconds) << " s\n";
    if (!args.trace_out.empty()) tracer.WriteJsonl(args.trace_out);
  }
  return report.Emit(loop.attempted, loop.failed);
}

}  // namespace perfbench
