// stream-csv: StreamingCustodian::Release on the CSV table, CSV to CSV at
// one thread with the default chunk rows, through the CLI's resumable
// sink, key saved. Every release layer runs serially here, so each
// layer's share of the wall shows in full.

#include <iostream>
#include <memory>

#include "stream/cols_io.h"
#include "stream/manifest.h"
#include "stream/streaming_custodian.h"
#include "transform/compiled.h"
#include "transform/serialize.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kRoot = "stream-csv.release";
constexpr size_t kKernelChunks = 16;  // chunks kept for the kernel replay

// Records a data.read span around every NextChunk, split by pass, and
// keeps the first chunks for the kernel replay of a traced run.
class TracingReader : public popp::stream::ChunkReader {
 public:
  TracingReader(popp::stream::ChunkReader& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  popp::Result<popp::Dataset> NextChunk(size_t max_rows) override {
    const double t0 = Now();
    auto chunk = [&] {
      Scope span(tracer_, "data.read");
      return inner_.NextChunk(max_rows);
    }();
    read_s_[pass_] += Now() - t0;
    if (chunk.ok()) {
      rows_ += chunk.value().NumRows();
      if (tracer_.enabled() && pass_ == 0 && kept.size() < kKernelChunks &&
          chunk.value().NumRows() > 0) {
        kept.push_back(chunk.value());
      }
    }
    return chunk;
  }
  popp::Status Rewind() override {
    pass_ = 1;
    Scope span(tracer_, "data.read");
    return inner_.Rewind();
  }

  double read_s(int pass) const { return read_s_[pass]; }
  size_t rows() const { return rows_; }
  std::vector<popp::Dataset> kept;

 private:
  popp::stream::ChunkReader& inner_;
  Tracer& tracer_;
  int pass_ = 0;
  double read_s_[2] = {0, 0};
  size_t rows_ = 0;
};

// Records stream.write around Append and stream.close around Close.
// BeginStream (opening the staging file and journal) stays untraced, so
// stream.write_s is exactly the time in Append.
class TracingWriter : public popp::stream::ChunkWriter {
 public:
  TracingWriter(popp::stream::ChunkWriter& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  popp::Status BeginStream(const std::string& fingerprint) override {
    return inner_.BeginStream(fingerprint);
  }
  size_t CompletedChunks() const override { return inner_.CompletedChunks(); }
  popp::Status NoteSkipped(size_t chunk_index, size_t rows) override {
    return inner_.NoteSkipped(chunk_index, rows);
  }
  popp::Status Append(const popp::Dataset& chunk) override {
    Scope span(tracer_, "stream.write");
    return inner_.Append(chunk);
  }
  popp::Status Close() override {
    Scope span(tracer_, "stream.close");
    return inner_.Close();
  }

 private:
  popp::stream::ChunkWriter& inner_;
  Tracer& tracer_;
};

struct RepLayers {
  double summarize_s = 0, encode_s = 0, fit_s = 0, read_s = 0;
  double rows = 0, chunks = 0, ood = 0, refits = 0;
};

}  // namespace

int RunStreamCsv(const Args& args) {
  Report report(args);
  report.Input(kRows, FileBytes("input.csv"));

  // Set-up: open the input through the product's reader and take its
  // first chunk (header, schema and the first records validated).
  const Setup setup = [](std::string* why) {
    auto reader = popp::stream::MakeChunkReader("input.csv");
    if (!reader.ok()) return *why = reader.status().ToString(), false;
    auto chunk = reader.value()->NextChunk(popp::stream::StreamOptions{}.chunk_rows);
    if (!chunk.ok() || chunk.value().NumRows() == 0) {
      *why = "input.csv yields no first chunk";
      return false;
    }
    return true;
  };
  std::vector<double> setup_samples;
  if (!TimeSetup(setup, 3, &setup_samples)) return 1;

  Tracer tracer(args.trace);
  std::vector<RepLayers> layers;
  std::vector<uint64_t> traced;
  std::vector<double> traced_s, untraced_s;
  std::vector<popp::Dataset> kernel_chunks;
  popp::TransformPlan last_plan;

  auto op = [&](uint64_t rep, double* seconds, std::string* why) {
    // In a traced run, odd repetitions are traced and even ones are not,
    // so the two can be compared for the tracing overhead.
    const bool trace_this = args.trace && rep % 2 == 1;
    Tracer off(false);
    Tracer& t = trace_this ? tracer : off;
    auto inner = popp::stream::MakeChunkReader("input.csv");
    if (!inner.ok()) return *why = inner.status().ToString(), false;
    TracingReader reader(*inner.value(), t);
    popp::stream::ResumableCsvChunkWriter sink("release.csv");
    TracingWriter writer(sink, t);
    popp::stream::StreamOptions options;
    options.seed = args.seed;
    options.exec = popp::ExecPolicy::Serial();
    popp::stream::StreamStats stats;

    const double t0 = Now();
    popp::Status saved;
    {
      Scope root(t, kRoot, rep);
      auto plan = [&] {
        Scope span(t, "stream.release");
        return popp::stream::StreamingCustodian::Release(reader, writer,
                                                         options, &stats);
      }();
      if (!plan.ok()) return *why = plan.status().ToString(), false;
      {
        Scope span(t, "transform.save_key");
        saved = popp::SavePlan(plan.value(), "release.key");
      }
      last_plan = std::move(plan).value();
    }
    *seconds = Now() - t0;
    if (!saved.ok()) return *why = saved.ToString(), false;
    if (!SameBytes({"release.csv"}, "expected.csv", why)) return false;

    (trace_this ? traced_s : untraced_s).push_back(*seconds);
    if (trace_this) {
      traced.push_back(rep);
      RepLayers l;
      l.read_s = reader.read_s(0) + reader.read_s(1);
      l.summarize_s = stats.summarize_seconds - reader.read_s(0);
      l.encode_s = stats.encode_seconds - reader.read_s(1);
      l.fit_s = stats.fit_seconds;
      l.rows = static_cast<double>(reader.rows());
      l.chunks = static_cast<double>(stats.chunks);
      l.ood = static_cast<double>(stats.ood_total);
      l.refits = static_cast<double>(stats.refits);
      layers.push_back(l);
      if (kernel_chunks.empty()) kernel_chunks = std::move(reader.kept);
    }
    return true;
  };

  Loop loop;
  RunLoop(op, args.seconds, args.trace ? 2 : 3, &loop, 1, &setup, 3);
  setup_samples.insert(setup_samples.end(), loop.setup_seconds.begin(),
                       loop.setup_seconds.end());

  if (!args.trace) {
    const double wall = Median(loop.seconds);
    report.Set("setup_s", Median(setup_samples), setup_samples);
    report.Set("wall_s", wall, loop.seconds);
    report.Set("rows_per_s", wall > 0 ? kRows / wall : 0);
    report.Set("peak_rss_mb", PeakRssMb());
    report.Set("p50_ms", 1000.0 * wall);
  } else if (!layers.empty()) {
    auto med = [&](double RepLayers::*field) {
      std::vector<double> v;
      for (const RepLayers& l : layers) v.push_back(l.*field);
      return Median(v);
    };
    report.Set("data.read_s", med(&RepLayers::read_s));
    report.Set("data.rows_read", med(&RepLayers::rows));
    report.Set("stream.summarize_s", med(&RepLayers::summarize_s));
    report.Set("stream.encode_s", med(&RepLayers::encode_s));
    report.Set("stream.write_s", MedianTotal(tracer, traced, "stream.write"));
    report.Set("stream.close_s", MedianTotal(tracer, traced, "stream.close"));
    report.Set("stream.chunks", med(&RepLayers::chunks));
    report.Set("stream.bytes_out", static_cast<double>(FileBytes("release.csv")));
    report.Set("stream.ood_total", med(&RepLayers::ood));
    report.Set("stream.refits", med(&RepLayers::refits));
    report.Set("transform.fit_s", med(&RepLayers::fit_s));

    // Kernel replay, outside the timed operation: compile the returned
    // key and encode the first chunks serially, as the encode pass does.
    const uint64_t replay = 1u << 30;
    popp::CompiledPlan compiled;
    {
      Scope span(tracer, "transform.compile", replay);
      compiled = popp::CompiledPlan::Compile(last_plan);
    }
    double kernel_rows = 0;
    {
      Scope span(tracer, "transform.kernel", replay);
      for (const popp::Dataset& chunk : kernel_chunks) {
        kernel_rows += compiled
                           .EncodeDataset(chunk, popp::ExecPolicy::Serial())
                           .NumRows();
      }
    }
    report.Set("transform.compile_s",
               tracer.TotalSeconds("transform.compile", replay));
    const double kernel_s = tracer.TotalSeconds("transform.kernel", replay);
    report.Set("transform.kernel_rows_per_s",
               kernel_s > 0 ? kernel_rows / kernel_s : 0);
    report.Set("trace.overhead_pct", OverheadPct(untraced_s, traced_s));
    report.Set("trace.self_coverage_pct",
               SelfCoveragePct(tracer, traced, kRoot));
    PrintSelfTimes(tracer, traced, kRoot);
    std::cout << "stream.release self time splits (StreamStats minus traced "
                 "reads): summarize "
              << med(&RepLayers::summarize_s) << " s, fit "
              << med(&RepLayers::fit_s) << " s, encode "
              << med(&RepLayers::encode_s) << " s\n";
    if (!args.trace_out.empty()) tracer.WriteJsonl(args.trace_out);
  }
  return report.Emit(loop.attempted, loop.failed);
}

}  // namespace perfbench
