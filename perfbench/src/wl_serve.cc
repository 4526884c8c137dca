// serve-cols: a real popp-serve process (2 connection threads) serves two
// tenants, each with a warm cached plan. One client process with two
// connections sends 50k-row popp-cols encode requests and gets popp-cols
// replies: first a closed loop measures capacity, then an open loop at a
// fixed rate times each request from when it was due.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <iostream>
#include <mutex>
#include <thread>

#include "data/cols.h"
#include "fault/file.h"
#include "serve/client.h"
#include "serve/ops.h"
#include "serve/protocol.h"
#include "serve/workspace.h"
#include "transform/compiled.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using popp::serve::ReplyBody;
using popp::serve::RequestBody;
using popp::serve::ServeClient;
using popp::serve::Tag;

constexpr const char* kSocket = "serve.sock";
constexpr const char* kRoot = "serve-cols.request";
const char* const kTenants[2] = {"t0", "t1"};

std::string DaemonPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "popp-serve";
  std::string self(buf, static_cast<size_t>(n));
  return self.substr(0, self.rfind('/') + 1) + "popp-serve";
}

// The daemon under test. Always reaped: a shutdown request first, then
// SIGTERM, then SIGKILL.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(std::string* why) {
    const std::string path = DaemonPath();
    pid_ = ::fork();
    if (pid_ < 0) return *why = "fork failed", false;
    if (pid_ == 0) {
      ::execl(path.c_str(), path.c_str(), kSocket, "--threads", "2",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return true;
  }

  pid_t pid() const { return pid_; }

  /// Graceful stop; true when the daemon exited 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    ServeClient client;
    if (client.Connect(kSocket).ok()) {
      (void)client.Call(Tag::kShutdown, "", RequestBody{});
    }
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 100 && !exited; ++i) {  // up to 5 s
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) ::usleep(50000);
    }
    if (!exited) {
      ::kill(pid_, SIGTERM);
      for (int i = 0; i < 40 && !exited; ++i) {
        exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!exited) ::usleep(50000);
      }
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

bool ConnectWhenUp(ServeClient& client, std::string* why) {
  const double deadline = Now() + 10;
  for (;;) {
    const popp::Status status = client.Connect(kSocket);
    if (status.ok()) return true;
    if (Now() > deadline) return *why = status.ToString(), false;
    ::usleep(2000);
  }
}

bool CallOk(ServeClient& client, Tag tag, const std::string& tenant,
            const RequestBody& request, ReplyBody* reply, std::string* why) {
  auto result = client.Call(tag, tenant, request);
  if (!result.ok()) return *why = result.status().ToString(), false;
  *reply = std::move(result).value();
  if (!reply->ok()) return *why = reply->text, false;
  return true;
}

struct Sample {
  double latency_s = 0;  ///< from send (closed loop) or due time (open loop)
  double late_s = 0;     ///< how late the generator sent it
  bool ok = false;
  bool shed = false;
};

struct Phase {
  std::vector<Sample> samples;
  double elapsed_s = 0;
};

// Two client threads, one connection each. `rate` 0 is the closed loop
// (each connection sends its next request when the previous reply
// arrives); otherwise request k is due at start + k / rate and goes out
// on whichever connection frees up first.
Phase Drive(const std::vector<RequestBody>& requests,
            const std::vector<std::string>& expected, double seconds,
            double rate, std::string* why) {
  Phase phase;
  std::mutex mu;
  std::atomic<uint64_t> next{0};
  const double start = Now();
  const double end = start + seconds;
  auto worker = [&](int conn) {
    ServeClient client;
    std::string err;
    if (!ConnectWhenUp(client, &err)) {
      std::lock_guard<std::mutex> lock(mu);
      *why = err;
      phase.samples.push_back(Sample{});  // counts as a failed request
      return;
    }
    std::vector<Sample> mine;
    for (;;) {
      int tenant = conn;
      double due = Now();
      if (rate > 0) {
        const uint64_t k = next.fetch_add(1);
        due = start + static_cast<double>(k) / rate;
        tenant = static_cast<int>(k % 2);
        if (due >= end) break;
        const double wait = due - Now();
        if (wait > 0) ::usleep(static_cast<useconds_t>(wait * 1e6));
      } else if (due >= end) {
        break;
      }
      Sample s;
      const double sent = Now();
      s.late_s = std::max(0.0, sent - due);
      auto reply = client.Call(Tag::kEncode, kTenants[tenant], requests[tenant]);
      s.latency_s = Now() - due;
      if (reply.ok()) {
        s.shed = reply.value().code == popp::StatusCode::kUnavailable;
        s.ok = reply.value().ok() && reply.value().body == expected[tenant];
        if (!s.ok && !s.shed) {
          std::lock_guard<std::mutex> lock(mu);
          *why = reply.value().ok() ? "reply differs from the library encode"
                                    : reply.value().text;
        }
      } else {
        std::lock_guard<std::mutex> lock(mu);
        *why = reply.status().ToString();
      }
      mine.push_back(s);
      if (!reply.ok()) break;  // the connection is gone
    }
    std::lock_guard<std::mutex> lock(mu);
    phase.samples.insert(phase.samples.end(), mine.begin(), mine.end());
  };
  std::thread a(worker, 0), b(worker, 1);
  a.join();
  b.join();
  phase.elapsed_s = Now() - start;
  return phase;
}

// Cache hits and misses of one tenant, from its stats reply.
bool CacheCounts(ServeClient& client, const std::string& tenant, double* hits,
                 double* misses, std::string* why) {
  ReplyBody reply;
  if (!CallOk(client, Tag::kStats, tenant, RequestBody{}, &reply, why)) {
    return false;
  }
  auto field = [&](const std::string& key) {
    const size_t at = reply.body.find(key + ": ");
    return at == std::string::npos
               ? 0.0
               : std::strtod(reply.body.c_str() + at + key.size() + 2, nullptr);
  };
  *hits += field("cache_hits");
  *misses += field("cache_misses");
  return true;
}

}  // namespace

int RunServeCols(const Args& args) {
  Report report(args);
  std::vector<RequestBody> requests(2);
  std::vector<std::string> expected(2);
  uint64_t input_bytes = 0;
  for (int i = 0; i < 2; ++i) {
    const std::string n = std::to_string(i);
    auto data = popp::fault::ReadFileToString("request" + n + ".cols");
    auto want = popp::fault::ReadFileToString("expected" + n + ".cols");
    if (!data.ok() || !want.ok()) {
      std::cerr << "perfbench: missing serve-cols inputs\n";
      return 1;
    }
    requests[i].options = "seed " + std::to_string(args.seed) + "\n";
    requests[i].dataset = std::move(data).value();
    expected[i] = std::move(want).value();
    input_bytes += requests[i].dataset.size();
  }
  report.Input(2 * kServeRows, input_bytes);

  // Set-up: daemon start, health reply, one cold fit per tenant. Done
  // five times; the last daemon stays up for the measurement.
  Daemon daemon;
  auto setup = [&](std::string* why) {
    if (!daemon.Stop()) return *why = "daemon did not exit 0", false;
    if (!daemon.Start(why)) return false;
    ServeClient client;
    if (!ConnectWhenUp(client, why)) return false;
    ReplyBody reply;
    if (!CallOk(client, Tag::kHealth, "", RequestBody{}, &reply, why)) {
      return false;
    }
    for (int i = 0; i < 2; ++i) {
      if (!CallOk(client, Tag::kFit, kTenants[i], requests[i], &reply, why)) {
        return false;
      }
    }
    return true;
  };
  std::vector<double> setup_samples;
  if (!TimeSetup(setup, 5, &setup_samples)) return 1;

  size_t attempted = 0, failed = 0;
  auto tally = [&](const Phase& phase) {
    for (const Sample& s : phase.samples) {
      ++attempted;
      if (!s.ok) ++failed;
    }
  };
  std::string why;
  const Phase closed = Drive(requests, expected, 0.4 * args.seconds, 0, &why);
  tally(closed);
  const Phase open =
      Drive(requests, expected, 0.6 * args.seconds, kServeOpenRate, &why);
  tally(open);
  if (!why.empty()) std::cerr << "perfbench: serve-cols: " << why << "\n";

  double hits = 0, misses = 0;
  {
    ServeClient client;
    std::string err;
    if (!ConnectWhenUp(client, &err) ||
        !CacheCounts(client, kTenants[0], &hits, &misses, &err) ||
        !CacheCounts(client, kTenants[1], &hits, &misses, &err)) {
      std::cerr << "perfbench: serve-cols stats: " << err << "\n";
      ++failed;
    }
  }
  const double daemon_rss = PeakRssMb(daemon.pid());
  ++attempted;  // the graceful drain is an operation too
  if (!daemon.Stop()) {
    std::cerr << "perfbench: popp-serve did not exit 0 on shutdown\n";
    ++failed;
  }

  std::vector<double> closed_s, open_s, late_s;
  size_t closed_done = 0, shed = 0;
  for (const Sample& s : closed.samples) {
    if (s.ok) closed_s.push_back(s.latency_s), ++closed_done;
    shed += s.shed;
  }
  for (const Sample& s : open.samples) {
    if (s.ok) open_s.push_back(1000.0 * s.latency_s);
    late_s.push_back(1000.0 * s.late_s);
    shed += s.shed;
  }
  const double qps =
      closed.elapsed_s > 0 ? closed_done / closed.elapsed_s : 0;
  const Tail tail = TailOf(open_s);
  report.Info("metric qps = " + std::to_string(qps) + " 1/s (closed loop, " +
              std::to_string(closed_done) + " requests, 2 connections)");
  report.Info(
      tail.ok ? "metric tail_ms = " + std::to_string(tail.value) + " ms (p" +
                    std::to_string(tail.percentile) + " of " +
                    std::to_string(open_s.size()) + " open-loop requests at " +
                    std::to_string(kServeOpenRate) + "/s, " +
                    std::to_string(tail.beyond) + " beyond)"
              : "metric tail_ms: fewer than 11 open-loop samples");

  if (!args.trace) {
    report.Set("setup_s", Median(setup_samples), setup_samples);
    report.Set("wall_s", Median(closed_s), closed_s);
    report.Set("rows_per_s", qps * kServeRows);
    report.Set("peak_rss_mb", daemon_rss);
    report.Set("p50_ms", Median(open_s), open_s);
    return report.Emit(attempted, failed);
  }

  // Traced run: the same request replayed in-process through the op
  // registry, its frame codec, and each part of the encode path.
  Tracer tracer(true);
  const uint64_t replay = 1u << 30;
  popp::serve::Workspace workspace(kTenants[0], 64);
  const popp::serve::OpConfig config;
  std::vector<double> traced_s, untraced_s;
  std::vector<uint64_t> traced;
  (void)popp::serve::DispatchOp(Tag::kFit, workspace, requests[0], config);
  for (uint64_t rep = 1; rep <= 20; ++rep) {
    const bool trace_this = rep % 2 == 1;
    Tracer off(false);
    Tracer& t = trace_this ? tracer : off;
    const double t0 = Now();
    ReplyBody reply;
    {
      Scope root(t, kRoot, rep);
      std::string payload;
      {
        Scope span(t, "serve.frame");
        auto frame = popp::serve::DecodeFrame(popp::serve::EncodeFrame(
            Tag::kEncode, kTenants[0], requests[0].Encode()));
        payload = frame.ok() ? frame.value().payload : "";
      }
      {
        Scope span(t, "serve.op");
        auto request = RequestBody::Decode(payload);
        if (request.ok()) {
          reply = popp::serve::DispatchOp(Tag::kEncode, workspace,
                                          request.value(), config);
        }
      }
      Scope span(t, "serve.frame");
      (void)popp::serve::DecodeFrame(
          popp::serve::EncodeFrame(Tag::kReply, "", reply.Encode()));
    }
    const double seconds = Now() - t0;
    ++attempted;
    if (!reply.ok() || reply.body != expected[0]) ++failed;
    (trace_this ? traced_s : untraced_s).push_back(seconds);
    if (trace_this) traced.push_back(rep);
  }

  // The encode op's parts, replayed one by one.
  popp::TransformPlan plan;
  popp::CompiledPlan compiled;
  auto parsed = popp::ParseCols(requests[0].dataset);
  if (!parsed.ok()) return 1;
  {
    Scope span(tracer, "transform.fit", replay);
    popp::Rng rng(args.seed);
    plan = popp::TransformPlan::Create(parsed.value(), popp::PiecewiseOptions{},
                                       rng, popp::ExecPolicy::Serial());
  }
  {
    Scope span(tracer, "transform.compile", replay);
    compiled = popp::CompiledPlan::Compile(plan);
  }
  std::vector<double> parse_ms, kernel_ms, serialize_ms;
  for (int rep = 0; rep < 10; ++rep) {
    double t0 = Now();
    auto data = [&] {
      Scope span(tracer, "serve.parse", replay);
      return popp::ParseCols(requests[0].dataset);
    }();
    parse_ms.push_back(1000.0 * (Now() - t0));
    t0 = Now();
    popp::Dataset released = [&] {
      Scope span(tracer, "serve.kernel", replay);
      return compiled.EncodeDataset(data.value(), popp::ExecPolicy::Serial());
    }();
    kernel_ms.push_back(1000.0 * (Now() - t0));
    t0 = Now();
    std::string body = [&] {
      Scope span(tracer, "serve.serialize", replay);
      return popp::SerializeCols(released);
    }();
    serialize_ms.push_back(1000.0 * (Now() - t0));
    ++attempted;
    if (body != expected[0]) ++failed;
  }

  const double op_ms = 1000.0 * MedianTotal(tracer, traced, "serve.op");
  report.Set("serve.op_ms", op_ms);
  report.Set("serve.parse_ms", Median(parse_ms));
  report.Set("serve.kernel_ms", Median(kernel_ms));
  report.Set("serve.serialize_ms", Median(serialize_ms));
  report.Set("serve.frame_ms", 1000.0 * MedianTotal(tracer, traced, "serve.frame"));
  report.Set("serve.wire_queue_ms", 1000.0 * Median(closed_s) - op_ms);
  report.Set("serve.qps", qps);
  report.Set("serve.tail_ms", tail.value);
  report.Set("serve.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0);
  const size_t sent = closed.samples.size() + open.samples.size();
  report.Set("serve.shed_ratio", sent > 0 ? static_cast<double>(shed) / sent : 0);
  report.Set("serve.gen_late_ms", Median(late_s));
  report.Set("transform.fit_s", tracer.TotalSeconds("transform.fit", replay));
  report.Set("transform.compile_s",
             tracer.TotalSeconds("transform.compile", replay));
  report.Set("transform.kernel_rows_per_s",
             kServeRows / (Median(kernel_ms) / 1000.0));
  report.Set("trace.overhead_pct", OverheadPct(untraced_s, traced_s));
  report.Set("trace.self_coverage_pct", SelfCoveragePct(tracer, traced, kRoot));
  PrintSelfTimes(tracer, traced, kRoot);
  std::cout << "serve.op parts (replayed, median ms): parse "
            << Median(parse_ms) << ", kernel " << Median(kernel_ms)
            << ", serialize " << Median(serialize_ms) << "\n";
  if (!args.trace_out.empty()) tracer.WriteJsonl(args.trace_out);
  return report.Emit(attempted, failed);
}

}  // namespace perfbench
