// End-to-end benchmark driver: record over the wire -> packed advice ->
// streamed audit. See perfbench/README.md for the workloads, the metrics and
// what each per-layer metric moves.
//
//   perfbench --workload stacks-wire --seed 1 --seconds 10 --trace 0
//             --cli .bench_build/karousos --work-dir .bench_run/stacks-wire
//
// A run is a sequence of whole rounds until --seconds have passed. One round:
//   1. generate one request stream per worker shard from (seed, round);
//   2. start a recording server process (this binary with --serve) hosting
//      WireServer (live mode, one worker per shard, epoch rollover + packed
//      KSEG containers);
//   3. load it with this process's closed-loop client (fixed connections and
//      a fixed pipeline window per connection), timing every request;
//   4. drain the server, which writes each shard's packed trace and advice;
//   5. audit every shard with the shipped `karousos audit` CLI, one process
//      per shard, all at once; then audit a copy of shard 0 in which the
//      response to the middle request id was forged, which must be rejected;
//   6. check the outputs (see checks.h);
//   7. with --trace 1, replay each shard in-process through the public
//      incremental core and the audit session, with one span per call.
// The last line of standard output is the JSON result.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/spans.h"
#include "src/adya/checker.h"
#include "src/analysis/check.h"
#include "src/apps/app.h"
#include "src/baseline/sequential.h"
#include "src/common/ids.h"
#include "src/net/buffer.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/wire_server.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using karousos::AppSpec;
using karousos::ByteWriter;
using karousos::EpochSlices;
using karousos::KsegCompression;
using karousos::TraceEvent;

// Connection shape, shared by every workload. Two worker shards plus one
// client process leave a core of a 4-core box for the listener thread and
// the kernel; the two shard audits then run side by side.
constexpr size_t kWorkers = 2;
constexpr size_t kConnections = 4;  // Connection i is served by worker i % kWorkers.
constexpr size_t kWindow = 8;       // Requests in flight per connection.
// Server-side admission window per shard: everything the shard's
// connections can have in flight.
constexpr int kConcurrency = static_cast<int>(kConnections / kWorkers * kWindow);
constexpr int kClientTimeoutMs = 30000;

struct WorkloadSpec {
  std::string name;
  std::string app;
  karousos::WorkloadKind kind;
  size_t requests_per_shard;  // Per round.
  uint64_t epoch_requests;    // Collector rollover and audit epoch size.
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"stacks-wire", "stacks", karousos::WorkloadKind::kMixed, 600, 100},
      {"wiki-wire", "wiki", karousos::WorkloadKind::kWikiMix, 600, 100},
      {"auction-wire", "auction", karousos::WorkloadKind::kAuctionMix, 1500, 250},
  };
  return kSpecs;
}

AppSpec MakeApp(const std::string& app) {
  if (app == "stacks") {
    return karousos::MakeStacksApp();
  }
  if (app == "wiki") {
    return karousos::MakeWikiApp();
  }
  return karousos::MakeAuctionApp();
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double CpuSeconds(const struct rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::optional<std::vector<uint8_t>> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

bool WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Recording server process.

struct ServerReport {
  double cpu_s = 0;
  std::map<std::string, double> counters;  // From the child's report file.
};

std::string ShardPath(const std::string& dir, size_t w, const char* kind) {
  return dir + "/shard" + std::to_string(w) + "." + kind + ".kseg";
}

std::string ServerAddress(const std::string& dir) { return "unix:" + dir + "/server.sock"; }

// The recording server process (`perfbench --serve`): serve until the
// client's drain frame, then write each shard's packed containers and the
// edge counters.
int Serve(const WorkloadSpec& spec, uint64_t seed, const std::string& dir, int ready_fd) {
  AppSpec app = MakeApp(spec.app);
  karousos::WireServerConfig wc;
  wc.listen = ServerAddress(dir);
  wc.workers = kWorkers;
  wc.batch = false;
  wc.server.mode = karousos::CollectMode::kKarousos;
  wc.server.isolation = karousos::IsolationLevel::kSerializable;
  wc.server.concurrency = kConcurrency;
  wc.server.seed = seed;
  wc.server.epoch_requests = spec.epoch_requests;
  wc.server.segment_compression = KsegCompression::All();
  karousos::WireServer server(*app.program, wc);
  std::string error;
  const char ready = server.Start(&error) ? '1' : '0';
  if (write(ready_fd, &ready, 1) != 1 || ready != '1') {
    std::fprintf(stderr, "perfbench: server start failed: %s\n", error.c_str());
    return 1;
  }
  close(ready_fd);
  karousos::WireServerReport report = server.Wait();
  if (!report.ok || report.shards.size() != kWorkers) {
    std::fprintf(stderr, "perfbench: server failed: %s\n", report.error.c_str());
    return 1;
  }
  std::FILE* out = std::fopen((dir + "/server_report.txt").c_str(), "w");
  if (out == nullptr) {
    return 1;
  }
  std::fprintf(out, "net.serve_s %.9f\nnet.frames %zu\nnet.read_disables %llu\n",
               report.serve_seconds, report.frames,
               static_cast<unsigned long long>(report.read_disables));
  std::fprintf(out, "net.peak_buffered_bytes %zu\nnet.protocol_errors %zu\n",
               report.peak_connection_buffered_bytes, report.protocol_errors);
  for (const karousos::WireShardResult& shard : report.shards) {
    const karousos::ServerRunResult& run = shard.run;
    if (!WriteBytes(ShardPath(dir, shard.worker, "trace"), run.trace_segments) ||
        !WriteBytes(ShardPath(dir, shard.worker, "advice"), run.advice_segments)) {
      return 1;
    }
    std::fprintf(out,
                 "server.handler_activations %zu\nserver.ops_executed %zu\n"
                 "server.var_accesses %zu\nserver.var_log_entries %zu\n"
                 "txkv.state_ops %zu\ntxkv.conflicts %zu\n",
                 run.handler_activations, run.ops_executed, run.var_accesses,
                 run.var_log_entries, run.state_ops, run.conflicts);
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

// Makes a forked child die with the driver, so a killed run leaves nothing
// behind.
void DieWithParent(pid_t parent) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) {
    _exit(1);
  }
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  bool Start(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // A fresh image of this binary in --serve mode, so the server's CPU
      // time and memory are its own.
      DieWithParent(parent);
      close(fds[0]);
      const std::string seed_arg = std::to_string(seed);
      const std::string fd_arg = std::to_string(fds[1]);
      std::vector<const char*> argv = {"perfbench",        "--serve",       "--workload",
                                       spec.name.c_str(), "--seed",        seed_arg.c_str(),
                                       "--work-dir",       dir.c_str(),     "--ready-fd",
                                       fd_arg.c_str(),     nullptr};
      execv("/proc/self/exe", const_cast<char* const*>(argv.data()));
      _exit(127);
    }
    close(fds[1]);
    struct pollfd pfd = {fds[0], POLLIN, 0};
    char ready = '0';
    const bool ok = poll(&pfd, 1, kClientTimeoutMs) == 1 && read(fds[0], &ready, 1) == 1 &&
                    ready == '1';
    close(fds[0]);
    if (!ok) {
      *error = "recording server did not start";
    }
    return ok;
  }

  // Waits for the drained server to write its shards and exit.
  bool Wait(const std::string& dir, ServerReport* report, std::string* error) {
    int status = 0;
    struct rusage ru {};
    pid_t done = 0;
    while ((done = wait4(pid_, &status, 0, &ru)) < 0 && errno == EINTR) {
    }
    pid_ = 0;
    if (done < 0) {
      *error = "lost the recording server";
      return false;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = "recording server failed";
      return false;
    }
    report->cpu_s = CpuSeconds(ru);
    std::ifstream in(dir + "/server_report.txt");
    std::string key;
    double value = 0;
    while (in >> key >> value) {
      report->counters[key] += value;
    }
    return true;
  }

 private:
  pid_t pid_ = 0;
};

// ---------------------------------------------------------------------------
// Closed-loop client.

struct ClientConn {
  std::unique_ptr<karousos::WireConn> wire;
  karousos::WatermarkBuffer in;
  karousos::FrameDecoder decoder;
  std::vector<size_t> queue;  // Exchange indices, in send order (seq = position).
  size_t next = 0;
  size_t in_flight = 0;
};

struct ClientResult {
  double wall_s = 0;
  size_t failed = 0;
  std::string error;
};

bool SendNext(ClientConn* c, std::vector<Exchange>* ex, std::string* error) {
  Exchange& e = (*ex)[c->queue[c->next]];
  e.sent_s = Now();
  if (!c->wire->SendRequest(e.seq, e.input, error)) {
    return false;
  }
  ++c->next;
  ++c->in_flight;
  return true;
}

// Reads whatever the socket holds and matches decoded responses to their
// requests. Returns false on EOF, a socket error or a protocol error.
bool Receive(ClientConn* c, std::vector<Exchange>* ex, size_t* outstanding, std::string* error) {
  uint8_t chunk[64 * 1024];
  for (;;) {
    ssize_t n = recv(c->wire->fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      c->in.Append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      *error = "server closed a connection";
      return false;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    break;
  }
  karousos::WireFrame frame;
  for (;;) {
    karousos::DecodeStatus status = c->decoder.Next(&c->in, &frame);
    if (status == karousos::DecodeStatus::kNeedMore) {
      return true;
    }
    uint64_t seq = 0;
    Value output;
    if (status == karousos::DecodeStatus::kError || frame.type != karousos::FrameType::kResponse ||
        !karousos::DecodeSeqValuePayload(frame.payload, &seq, &output)) {
      *error = "protocol error on a client connection";
      return false;
    }
    if (seq >= c->next) {
      *error = "response for a request not yet sent (seq " + std::to_string(seq) + ")";
      return false;
    }
    Exchange& e = (*ex)[c->queue[seq]];
    if (++e.responses == 1) {
      e.received_s = Now();
      e.response = std::move(output);
      --c->in_flight;
      --*outstanding;
    }
  }
}

ClientResult RunClient(std::vector<ClientConn>* conns, std::vector<Exchange>* ex) {
  ClientResult result;
  size_t outstanding = ex->size();
  const double start = Now();
  std::vector<struct pollfd> pfds(conns->size());
  for (size_t i = 0; i < conns->size(); ++i) {
    pfds[i] = {(*conns)[i].wire->fd(), POLLIN, 0};
  }
  while (outstanding > 0 && result.error.empty()) {
    for (ClientConn& c : *conns) {
      while (c.in_flight < kWindow && c.next < c.queue.size() && result.error.empty()) {
        SendNext(&c, ex, &result.error);
      }
    }
    if (!result.error.empty()) {
      break;
    }
    int rc = poll(pfds.data(), pfds.size(), kClientTimeoutMs);
    if (rc == 0) {
      result.error = "client timed out waiting for responses";
      break;
    }
    if (rc < 0 && errno != EINTR) {
      result.error = "poll failed";
      break;
    }
    for (size_t i = 0; i < conns->size() && result.error.empty(); ++i) {
      if (pfds[i].revents != 0) {
        Receive(&(*conns)[i], ex, &outstanding, &result.error);
      }
    }
  }
  result.wall_s = Now() - start;
  for (const Exchange& e : *ex) {
    result.failed += e.responses == 0 ? 1 : 0;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Audit processes.
//
// A forked child starts with its parent's resident pages counted in its own
// RSS, and Linux keeps that peak across execve; `karousos audit` forked from
// the driver (which grows over a run) would report the driver's size as its
// peak RSS. So audits are forked by a spawner process that is itself forked
// at start-up, while the driver is still small.

struct AuditJob {
  std::string trace;
  std::string advice;
  std::string out;  // Captured standard output and error.
};

class AuditSpawner {
 public:
  AuditSpawner(std::string cli, std::string app, uint64_t epoch)
      : cli_(std::move(cli)), app_(std::move(app)), epoch_(std::to_string(epoch)) {}
  AuditSpawner(const AuditSpawner&) = delete;
  AuditSpawner& operator=(const AuditSpawner&) = delete;

  ~AuditSpawner() {
    if (to_ != nullptr) {
      std::fclose(to_);
    }
    if (from_ != nullptr) {
      std::fclose(from_);
    }
    if (pid_ > 0) {
      waitpid(pid_, nullptr, 0);
    }
  }

  bool Start() {
    int jobs[2];
    int results[2];
    if (pipe(jobs) != 0 || pipe(results) != 0) {
      return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      return false;
    }
    if (pid_ == 0) {
      DieWithParent(parent);
      close(jobs[1]);
      close(results[0]);
      _exit(Loop(jobs[0], results[1]));
    }
    close(jobs[0]);
    close(results[1]);
    to_ = fdopen(jobs[1], "w");
    from_ = fdopen(results[0], "r");
    return to_ != nullptr && from_ != nullptr;
  }

  // Runs all jobs at once. Returns the wall time from the first start until
  // every process has exited, or a negative value if the spawner failed.
  double Run(const std::vector<AuditJob>& jobs, std::vector<AuditOutcome>* outcomes) {
    for (const AuditJob& job : jobs) {
      std::fprintf(to_, "%s\t%s\t%s\n", job.trace.c_str(), job.advice.c_str(), job.out.c_str());
    }
    std::fprintf(to_, "\n");
    std::fflush(to_);
    outcomes->assign(jobs.size(), AuditOutcome{});
    double first_start = 0;
    double last_end = 0;
    for (size_t n = 0; n < jobs.size(); ++n) {
      size_t i = 0;
      int exit_code = 0;
      double start = 0;
      double end = 0;
      double cpu = 0;
      long rss_kb = 0;
      if (std::fscanf(from_, "%zu %d %lf %lf %lf %ld", &i, &exit_code, &start, &end, &cpu,
                      &rss_kb) != 6 ||
          i >= jobs.size()) {
        return -1;
      }
      AuditOutcome& o = (*outcomes)[i];
      o.exit_code = exit_code;
      o.wall_s = end - start;
      o.cpu_s = cpu;
      o.peak_rss_mb = static_cast<double>(rss_kb) / 1024.0;
      std::ifstream in(jobs[i].out);
      o.output.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
      first_start = n == 0 ? start : std::min(first_start, start);
      last_end = std::max(last_end, end);
    }
    return last_end - first_start;
  }

 private:
  // The spawner's side: read a batch of jobs (one per line, ended by an
  // empty line), start them all, report each one as it exits.
  int Loop(int in_fd, int out_fd) {
    std::FILE* in = fdopen(in_fd, "r");
    std::FILE* out = fdopen(out_fd, "w");
    if (in == nullptr || out == nullptr) {
      return 1;
    }
    char line[4096];
    std::vector<AuditJob> batch;
    while (std::fgets(line, sizeof(line), in) != nullptr) {
      std::string text(line);
      if (!text.empty() && text.back() == '\n') {
        text.pop_back();
      }
      if (!text.empty()) {
        const size_t t1 = text.find('\t');
        const size_t t2 = text.find('\t', t1 + 1);
        batch.push_back({text.substr(0, t1), text.substr(t1 + 1, t2 - t1 - 1),
                         text.substr(t2 + 1)});
        continue;
      }
      std::map<pid_t, std::pair<size_t, double>> running;  // pid -> (job, start).
      for (size_t i = 0; i < batch.size(); ++i) {
        const double start = Now();
        const pid_t pid = Exec(batch[i]);
        if (pid > 0) {
          running[pid] = {i, start};
        } else {
          std::fprintf(out, "%zu -1 %.9f %.9f 0 0\n", i, start, start);
        }
      }
      while (!running.empty()) {
        int status = 0;
        struct rusage ru {};
        const pid_t pid = wait4(-1, &status, 0, &ru);
        if (pid < 0) {
          if (errno == EINTR) {
            continue;
          }
          return 1;
        }
        const double end = Now();
        auto it = running.find(pid);
        if (it == running.end()) {
          continue;
        }
        std::fprintf(out, "%zu %d %.9f %.9f %.9f %ld\n", it->second.first,
                     WIFEXITED(status) ? WEXITSTATUS(status) : -1, it->second.second, end,
                     CpuSeconds(ru), static_cast<long>(ru.ru_maxrss));
        running.erase(it);
      }
      std::fflush(out);
      batch.clear();
    }
    return 0;
  }

  pid_t Exec(const AuditJob& job) {
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid != 0) {
      return pid;
    }
    DieWithParent(parent);
    const int fd = open(job.out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0 || dup2(fd, STDERR_FILENO) < 0) {
      _exit(126);
    }
    std::vector<const char*> argv = {cli_.c_str(),   "audit",          "--app",
                                     app_.c_str(),   "--trace",        job.trace.c_str(),
                                     "--advice",     job.advice.c_str(), "--epoch-size",
                                     epoch_.c_str(), "--threads",      "1",
                                     nullptr};
    execv(cli_.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);
  }

  std::string cli_;
  std::string app_;
  std::string epoch_;
  pid_t pid_ = 0;
  std::FILE* to_ = nullptr;
  std::FILE* from_ = nullptr;
};

// ---------------------------------------------------------------------------
// Traced in-process replay of one round.

using LayerValues = std::map<std::string, double>;

// The traced run replays each shard's record path twice per mode.
constexpr double kRecordPairs = 2;

// Spans recorded around calls into the program; metric "<name>_s" is their
// summed duration per round.
constexpr const char* kSpanNames[] = {
    "workload.generate",   "net.frame_encode",    "net.frame_decode",
    "server.inject",       "server.step",         "server.finish",
    "server.plain_inject", "server.plain_step",   "kseg.slice",
    "kseg.encode",         "analysis.load",       "analysis.check",
    "verifier.feed",       "verifier.finish",     "verifier.feed_noprescreen",
    "verifier.reject_feed", "adya.check",         "baseline.sequential",
};

class LayerReplay {
 public:
  LayerReplay(Tracer* tracer, const WorkloadSpec& spec, const AppSpec& app)
      : t_(tracer), spec_(spec), app_(app) {
    for (const char* name : kSpanNames) {
      ids_[name] = t_->Name(name);
    }
    ids_["shard"] = t_->Name("shard");
  }

  uint32_t id(const std::string& name) { return ids_.at(name); }

  // Replays shard `index`; adds its layer values into *out. Returns "" or
  // the first failed check.
  std::string Shard(size_t index, const std::vector<uint8_t>& trace_bytes,
                    const std::vector<uint8_t>& advice_bytes,
                    const std::vector<uint8_t>* forged_trace, uint64_t shard_seed,
                    LayerValues* out) {
    const size_t from = t_->size();
    Tracer::Scope shard(t_, ids_["shard"]);
    const uint64_t epoch = spec_.epoch_requests;
    karousos::SegmentLoadResult load;
    {
      Tracer::Scope s(t_, ids_["analysis.load"]);
      load = karousos::LoadSegmentStreams(trace_bytes, advice_bytes, epoch);
    }
    if (!load.ok) {
      return "shard containers failed to load: " + load.reason;
    }
    {
      Tracer::Scope s(t_, ids_["analysis.check"]);
      karousos::CheckResult check = karousos::CheckSegmentStreams(trace_bytes, advice_bytes, epoch);
      if (!check.ok) {
        return "model check rejected an honest shard: " + check.reason;
      }
    }
    karousos::Trace trace;
    std::vector<Value> inputs;
    for (const karousos::EpochSegment& seg : load.slices.segments) {
      for (const TraceEvent& ev : seg.window) {
        trace.events.push_back(ev);
        if (ev.kind == TraceEvent::Kind::kRequest) {
          inputs.push_back(ev.payload);
        }
      }
    }

    // The containers the wire server wrote and the CLI audited: re-encoding
    // their decoded slices packed gives back the same bytes.
    if (karousos::EncodeTraceSegments(load.slices, KsegCompression::All()) != trace_bytes ||
        karousos::EncodeAdviceSegments(load.slices, KsegCompression::All()) != advice_bytes) {
      return "re-encoding the wire containers' slices does not give back their bytes";
    }
    if (!RoundTrips(load.slices, trace_bytes, advice_bytes)) {
      return "the wire containers do not decode like a raw v1 encoding of their slices";
    }

    // Record path: the same inputs through the incremental core with the Run
    // schedule, recording with spans (A), recording off (B) and recording
    // without spans (C), in the order A B C C B A so that no replay gains or
    // loses by its place in the sequence. Each figure is per replay (half the
    // pair's sum); see Trace().
    karousos::ServerRunResult run;
    for (const char pass : {'A', 'B', 'C', 'C', 'B', 'A'}) {
      const double start = Now();
      karousos::ServerRunResult result = Record(
          inputs, shard_seed,
          pass == 'B' ? karousos::CollectMode::kOff : karousos::CollectMode::kKarousos,
          pass != 'C');
      const double took = Now() - start;
      if (pass == 'A') {
        (*out)["trace.record_traced_s"] += took / kRecordPairs;
        run = std::move(result);
      } else if (pass == 'C') {
        (*out)["trace.record_untraced_s"] += took / kRecordPairs;
      }
    }
    EpochSlices slices;
    {
      Tracer::Scope s(t_, ids_["kseg.slice"]);
      slices = karousos::SliceRun(run.trace, run.advice, epoch);
    }
    std::vector<uint8_t> packed_trace;
    std::vector<uint8_t> packed_advice;
    {
      Tracer::Scope s(t_, ids_["kseg.encode"]);
      packed_trace = karousos::EncodeTraceSegments(slices, KsegCompression::All());
      packed_advice = karousos::EncodeAdviceSegments(slices, KsegCompression::All());
    }
    const size_t raw_advice = karousos::EncodeAdviceSegments(slices).size();
    if (!RoundTrips(slices, packed_trace, packed_advice)) {
      return "packed containers do not decode like a raw v1 encoding of their slices";
    }
    (*out)["kseg.raw_advice_bytes"] += static_cast<double>(raw_advice);
    (*out)["kseg.packed_advice_bytes"] += static_cast<double>(packed_advice.size());
    const karousos::Advice::SizeBreakdown size = run.advice.MeasureSize();
    (*out)["advice.tags_bytes"] += static_cast<double>(size.tags);
    (*out)["advice.handler_logs_bytes"] += static_cast<double>(size.handler_logs);
    (*out)["advice.var_logs_bytes"] += static_cast<double>(size.var_logs);
    (*out)["advice.tx_logs_bytes"] += static_cast<double>(size.tx_logs);
    (*out)["advice.write_order_bytes"] += static_cast<double>(size.write_order);
    (*out)["server.requests"] += static_cast<double>(inputs.size());

    // Audit path over the containers the CLI audited.
    karousos::VerifierConfig config{karousos::IsolationLevel::kSerializable, 1};
    Feed(load.slices, config, "verifier.feed");
    karousos::AuditResult audit;
    {
      Tracer::Scope s(t_, ids_["verifier.finish"]);
      audit = session_->Finish();
    }
    if (!audit.accepted) {
      return "in-process session rejected an honest shard: " + audit.reason;
    }
    (*out)["verifier.peak_resident_bytes"] =
        std::max((*out)["verifier.peak_resident_bytes"],
                 static_cast<double>(session_->peak_resident_advice_bytes()));
    (*out)["verifier.epochs"] += static_cast<double>(load.slices.segments.size());
    const karousos::AuditStats& st = audit.stats;
    (*out)["verifier.groups"] += static_cast<double>(st.groups);
    (*out)["verifier.handler_executions"] += static_cast<double>(st.handler_executions);
    (*out)["verifier.handler_lanes"] += static_cast<double>(st.handler_lanes);
    (*out)["verifier.ops_executed"] += static_cast<double>(st.ops_executed);
    (*out)["verifier.graph_nodes"] += static_cast<double>(st.graph_nodes);
    (*out)["verifier.graph_edges"] += static_cast<double>(st.graph_edges);
    (*out)["verifier.isolation_dg_edges"] += static_cast<double>(st.isolation_dg_edges);
    (*out)["audit.layers_s." + std::to_string(index)] = t_->TotalSeconds("analysis.load", from) +
                                                       t_->TotalSeconds("verifier.feed", from) +
                                                       t_->TotalSeconds("verifier.finish", from);

    karousos::VerifierConfig no_prescreen = config;
    no_prescreen.prescreen = false;
    Feed(load.slices, no_prescreen, "verifier.feed_noprescreen");
    if (!session_->Finish().accepted) {
      return "in-process session without prescreen rejected an honest shard";
    }

    karousos::Advice merged = karousos::MergeSlices(std::move(load.slices));
    {
      Tracer::Scope s(t_, ids_["adya.check"]);
      karousos::IsolationCheckResult iso = karousos::CheckHistory(
          karousos::IsolationLevel::kSerializable, merged.tx_logs, merged.write_order);
      if (!iso.ok) {
        return "isolation check failed on an honest shard: " + iso.reason;
      }
    }
    {
      Tracer::Scope s(t_, ids_["baseline.sequential"]);
      karousos::SequentialReplay(app_, trace);
    }

    if (forged_trace != nullptr) {
      std::string error = Reject(*forged_trace, advice_bytes, config, out);
      if (!error.empty()) {
        return error;
      }
    }
    return "";
  }

  // Encodes and decodes (frame and payload) every request and response frame
  // of the round.
  std::string Frames(const std::vector<Exchange>& ex) {
    ByteWriter requests;
    ByteWriter responses;
    {
      Tracer::Scope s(t_, ids_["net.frame_encode"]);
      for (const Exchange& e : ex) {
        karousos::EncodeRequestFrame(e.seq, e.input, &requests);
        karousos::EncodeResponseFrame(e.seq, e.response, &responses);
      }
    }
    size_t decoded = 0;
    {
      Tracer::Scope s(t_, ids_["net.frame_decode"]);
      for (ByteWriter* bytes : {&requests, &responses}) {
        karousos::WatermarkBuffer buf;
        buf.Append(bytes->bytes().data(), bytes->size());
        karousos::FrameDecoder decoder;
        karousos::WireFrame frame;
        uint64_t seq = 0;
        Value value;
        while (decoder.Next(&buf, &frame) == karousos::DecodeStatus::kFrame &&
               karousos::DecodeSeqValuePayload(frame.payload, &seq, &value)) {
          ++decoded;
        }
      }
    }
    return decoded == 2 * ex.size() ? "" : "frame round trip lost frames";
  }

 private:
  // True when the packed containers and a raw v1 encoding of `slices` both
  // decode to slices whose raw v1 bytes equal those of `slices`.
  bool RoundTrips(const EpochSlices& slices, const std::vector<uint8_t>& packed_trace,
                  const std::vector<uint8_t>& packed_advice) const {
    const std::vector<uint8_t> raw = RawBytes(slices);
    karousos::SegmentLoadResult packed =
        karousos::LoadSegmentStreams(packed_trace, packed_advice, spec_.epoch_requests);
    karousos::SegmentLoadResult v1 =
        karousos::LoadSegmentStreams(karousos::EncodeTraceSegments(slices),
                                     karousos::EncodeAdviceSegments(slices), spec_.epoch_requests);
    return packed.ok && v1.ok && RawBytes(packed.slices) == raw && RawBytes(v1.slices) == raw;
  }

  karousos::ServerRunResult Record(const std::vector<Value>& inputs, uint64_t seed,
                                   karousos::CollectMode mode, bool traced) {
    karousos::ServerConfig cfg;
    cfg.mode = mode;
    cfg.isolation = karousos::IsolationLevel::kSerializable;
    cfg.concurrency = kConcurrency;
    cfg.seed = seed;
    karousos::Server server(*app_.program, cfg);
    const bool plain = mode == karousos::CollectMode::kOff;
    const uint32_t inject = ids_[plain ? "server.plain_inject" : "server.inject"];
    const uint32_t step = ids_[plain ? "server.plain_step" : "server.step"];
    server.BeginRun(inputs.size());
    size_t next = 0;
    const auto window = static_cast<size_t>(kConcurrency);
    while (next < inputs.size() || server.in_flight_count() > 0) {
      while (server.in_flight_count() < window && next < inputs.size()) {
        std::optional<Tracer::Scope> s;
        if (traced) {
          s.emplace(t_, inject);
        }
        server.InjectRequest(inputs[next++]);
      }
      std::optional<Tracer::Scope> s;
      if (traced) {
        s.emplace(t_, step);
      }
      if (!server.StepOne()) {
        break;
      }
    }
    std::optional<Tracer::Scope> s;
    if (traced && !plain) {
      s.emplace(t_, ids_["server.finish"]);
    }
    return server.FinishRun();
  }

  // Feeds every epoch to a fresh session_ (one span per FeedEpoch); the
  // caller finishes it.
  void Feed(const EpochSlices& slices, const karousos::VerifierConfig& config, const char* span) {
    session_ = std::make_unique<karousos::AuditSession>(*app_.program, config,
                                                        spec_.epoch_requests);
    const uint32_t id = ids_[span];
    for (const karousos::EpochSegment& seg : slices.segments) {
      Tracer::Scope s(t_, id);
      if (!session_->FeedEpoch(seg)) {
        break;
      }
    }
  }

  std::string Reject(const std::vector<uint8_t>& forged_trace,
                     const std::vector<uint8_t>& advice_bytes,
                     const karousos::VerifierConfig& config, LayerValues* out) {
    karousos::SegmentLoadResult load =
        karousos::LoadSegmentStreams(forged_trace, advice_bytes, spec_.epoch_requests);
    if (!load.ok) {
      return "forged copy failed to load: " + load.reason;
    }
    karousos::AuditSession session(*app_.program, config, spec_.epoch_requests);
    const uint32_t id = ids_["verifier.reject_feed"];
    double epoch_decided = static_cast<double>(load.slices.segments.size());
    for (const karousos::EpochSegment& seg : load.slices.segments) {
      Tracer::Scope s(t_, id);
      if (!session.FeedEpoch(seg)) {
        epoch_decided = static_cast<double>(seg.epoch);
        break;
      }
    }
    if (session.Finish().accepted) {
      return "in-process session accepted the forged copy";
    }
    (*out)["verifier.reject_epoch"] = epoch_decided;
    return "";
  }

  Tracer* t_;
  const WorkloadSpec& spec_;
  const AppSpec& app_;
  std::map<std::string, uint32_t> ids_;
  std::unique_ptr<karousos::AuditSession> session_;
};

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;
  std::string work_dir;
  int ready_fd = -1;  // --serve mode only.
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--cli") {
      o.cli = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--ready-fd") {
      o.ready_fd = std::atoi(value.c_str());
    } else {
      return std::nullopt;
    }
  }
  return o;
}

// What one round measured. `error` is the first failed output check; `fatal`
// is a failure of the benchmark's own machinery (no result is printed).
struct RoundResult {
  size_t requests = 0;
  size_t failed = 0;
  double connected_at = 0;  // When the client had every connection open.
  double record_wall_s = 0;
  std::vector<double> latencies_ms;
  double server_cpu_s = 0;
  double packed_advice_bytes = 0;
  double audit_s = 0;
  double audit_cpu_s = 0;
  double audit_rss_mb = 0;
  double reject_s = 0;
  LayerValues layers;  // --trace 1 only.
  std::string error;
  std::string fatal;
};

class RoundRunner {
 public:
  RoundRunner(const Options& opt, const WorkloadSpec& spec, const AppSpec& app,
              AuditSpawner* audits)
      : opt_(opt), spec_(spec), audits_(audits), replay_(&tracer_, spec, app) {}

  RoundResult Run(uint64_t round) {
    RoundResult r;
    const uint64_t round_seed = karousos::HashMix64(opt_.seed, round);
    const size_t spans_from = tracer_.size();

    // 1. Inputs: one stream per shard; shard w's requests ride the
    //    connections the listener hands to worker w.
    std::vector<Exchange> ex;
    std::vector<ClientConn> conns(kConnections);
    {
      std::optional<Tracer::Scope> s;
      if (opt_.trace) {
        s.emplace(&tracer_, replay_.id("workload.generate"));
      }
      for (size_t w = 0; w < kWorkers; ++w) {
        karousos::WorkloadConfig wl;
        wl.app = spec_.app;
        wl.kind = spec_.kind;
        wl.requests = spec_.requests_per_shard;
        wl.seed = karousos::HashMix64(round_seed, w);
        wl.connections = static_cast<int>(kConnections / kWorkers);
        wl.hot_items = 4;  // Auction only: Zipf(0.9) over 4 hot items.
        wl.zipf_theta = 0.9;
        std::vector<Value> inputs = karousos::GenerateWorkload(wl);
        for (size_t j = 0; j < inputs.size(); ++j) {
          const size_t conn = w + kWorkers * (j % (kConnections / kWorkers));
          Exchange e;
          e.shard = w;
          e.conn = conn;
          e.seq = conns[conn].queue.size();
          e.input = std::move(inputs[j]);
          conns[conn].queue.push_back(ex.size());
          ex.push_back(std::move(e));
        }
      }
    }
    r.requests = ex.size();

    // 2. Recording server.
    const std::string dir = opt_.work_dir;
    const std::string address = ServerAddress(dir);
    ServerProcess server;
    std::string error;
    if (!server.Start(spec_, round_seed, dir, &error)) {
      r.fatal = error;
      return r;
    }
    for (ClientConn& c : conns) {
      c.wire = karousos::WireConn::Connect(address, &error);
      if (c.wire == nullptr) {
        r.fatal = "connect: " + error;
        return r;
      }
    }
    r.connected_at = Now();

    // 3. Load.
    ClientResult client = RunClient(&conns, &ex);
    r.failed = client.failed;
    if (!client.error.empty()) {
      r.error = "client: " + client.error;
    }
    r.record_wall_s = client.wall_s;
    for (const Exchange& e : ex) {
      if (e.responses > 0) {
        r.latencies_ms.push_back((e.received_s - e.sent_s) * 1e3);
      }
    }

    // 4. Drain; the server writes its shards.
    if (!conns[0].wire->SendShutdown(kConnections, &error)) {
      r.fatal = "shutdown: " + error;
      return r;
    }
    conns.clear();
    ServerReport report;
    if (!server.Wait(dir, &report, &error)) {
      r.fatal = error;
      return r;
    }
    r.server_cpu_s = report.cpu_s;
    Check(&r, report.counters["net.protocol_errors"] == 0 ? "" : "server saw protocol errors");

    // 5. Audit every shard, then the forged copy of shard 0.
    std::vector<AuditJob> jobs;
    std::vector<std::vector<uint8_t>> trace_bytes(kWorkers);
    std::vector<std::vector<uint8_t>> advice_bytes(kWorkers);
    for (size_t w = 0; w < kWorkers; ++w) {
      jobs.push_back({ShardPath(dir, w, "trace"), ShardPath(dir, w, "advice"),
                      dir + "/audit" + std::to_string(w) + ".out"});
      auto t = ReadBytes(jobs.back().trace);
      auto a = ReadBytes(jobs.back().advice);
      if (!t || !a) {
        r.fatal = "missing shard containers";
        return r;
      }
      trace_bytes[w] = std::move(*t);
      advice_bytes[w] = std::move(*a);
      r.packed_advice_bytes += static_cast<double>(advice_bytes[w].size());
    }
    std::vector<AuditOutcome> outcomes;
    r.audit_s = audits_->Run(jobs, &outcomes);
    for (size_t w = 0; w < kWorkers; ++w) {
      r.audit_cpu_s += outcomes[w].cpu_s;
      r.audit_rss_mb = std::max(r.audit_rss_mb, outcomes[w].peak_rss_mb);
      Check(&r, VerdictAccepted(outcomes[w])
                    ? ""
                    : "shard " + std::to_string(w) + " not accepted: " + outcomes[w].output);
    }

    std::vector<std::vector<TraceEvent>> shard_events(kWorkers);
    std::vector<uint8_t> forged_trace;
    for (size_t w = 0; w < kWorkers; ++w) {
      karousos::SegmentLoadResult load =
          karousos::LoadSegmentStreams(trace_bytes[w], advice_bytes[w], spec_.epoch_requests);
      if (!load.ok) {
        Check(&r, "shard containers do not decode: " + load.reason);
        continue;
      }
      for (const karousos::EpochSegment& seg : load.slices.segments) {
        shard_events[w].insert(shard_events[w].end(), seg.window.begin(), seg.window.end());
      }
      if (w == 0) {
        Check(&r, ForgeResponse(&load.slices, spec_.requests_per_shard / 2,
                                karousos::MakeMap({{"forged", Value(true)}}))
                      ? ""
                      : "could not forge a response");
        forged_trace = karousos::EncodeTraceSegments(load.slices, KsegCompression::All());
      }
    }
    const std::string forged_path = dir + "/shard0.forged.trace.kseg";
    if (!WriteBytes(forged_path, forged_trace)) {
      r.fatal = "could not write the forged copy";
      return r;
    }
    std::vector<AuditOutcome> rejected;
    r.reject_s =
        audits_->Run({{forged_path, jobs[0].advice, dir + "/audit_forged.out"}}, &rejected);
    if (r.audit_s < 0 || r.reject_s < 0) {
      r.fatal = "the audit spawner failed";
      return r;
    }
    Check(&r,
          VerdictRejected(rejected[0]) ? "" : "forged copy not rejected: " + rejected[0].output);

    // 6. Output checks.
    Check(&r, CheckOneResponseEach(ex));
    for (size_t w = 0; w < kWorkers; ++w) {
      std::vector<const Exchange*> shard;
      for (const Exchange& e : ex) {
        if (e.shard == w) {
          shard.push_back(&e);
        }
      }
      for (const std::string& why :
           {CheckTraceMatches(shard, shard_events[w]), CheckAppInvariants(spec_.app, shard)}) {
        Check(&r, why.empty() ? "" : "shard " + std::to_string(w) + ": " + why);
      }
    }

    // 7. Traced replay.
    if (opt_.trace && r.error.empty()) {
      Trace(r, report, ex, outcomes, trace_bytes, advice_bytes, forged_trace, round_seed,
            spans_from);
    }
    return r;
  }

  const Tracer& tracer() const { return tracer_; }

 private:
  static void Check(RoundResult* r, const std::string& why) {
    if (!why.empty() && r->error.empty()) {
      r->error = why;
    }
  }

  void Trace(RoundResult& r, const ServerReport& report, const std::vector<Exchange>& ex,
             const std::vector<AuditOutcome>& outcomes,
             const std::vector<std::vector<uint8_t>>& trace_bytes,
             const std::vector<std::vector<uint8_t>>& advice_bytes,
             const std::vector<uint8_t>& forged_trace, uint64_t round_seed, size_t spans_from) {
    LayerValues& lv = r.layers;
    lv = report.counters;
    size_t retries = 0;
    for (const Exchange& e : ex) {
      retries += e.response.Field("retry").BoolOr(false) ? 1 : 0;
    }
    lv["txkv.retry_responses"] = static_cast<double>(retries);
    Check(&r, replay_.Frames(ex));
    size_t slowest = 0;
    for (size_t w = 0; w < kWorkers && r.error.empty(); ++w) {
      Check(&r, replay_.Shard(w, trace_bytes[w], advice_bytes[w],
                              w == 0 ? &forged_trace : nullptr, round_seed + w, &lv));
      if (outcomes[w].wall_s > outcomes[slowest].wall_s) {
        slowest = w;
      }
    }
    // What the in-process layers do not explain of the shard that set
    // audit_s: process start, file reads, app construction, contention.
    lv["audit.other_s"] = r.audit_s - lv["audit.layers_s." + std::to_string(slowest)];
    lv["audit_s"] = r.audit_s;
    lv["reject_s"] = r.reject_s;
    for (const char* name : kSpanNames) {
      lv[std::string(name) + "_s"] = tracer_.TotalSeconds(name, spans_from);
    }
    // The record-path spans come from two replays each (A B C C B A).
    for (const char* name : {"server.inject_s", "server.step_s", "server.finish_s",
                             "server.plain_inject_s", "server.plain_step_s"}) {
      lv[name] /= kRecordPairs;
    }
    lv["server.plain_run_s"] = lv["server.plain_inject_s"] + lv["server.plain_step_s"];
    lv["server.record_run_s"] = lv["server.inject_s"] + lv["server.step_s"];
    lv["trace.spans"] = static_cast<double>(tracer_.size() - spans_from);
  }

  const Options& opt_;
  const WorkloadSpec& spec_;
  AuditSpawner* audits_;
  Tracer tracer_;
  LayerReplay replay_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Per-round values of `key`, median over rounds.
double MedianOf(const std::vector<RoundResult>& rounds, const std::string& key) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    auto it = r.layers.find(key);
    v.push_back(it == r.layers.end() ? 0 : it->second);
  }
  return Median(v);
}

// Per-round ratio num/den, median over rounds.
double MedianRatio(const std::vector<RoundResult>& rounds, const std::string& num,
                   const std::string& den) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    auto n = r.layers.find(num);
    auto d = r.layers.find(den);
    if (n != r.layers.end() && d != r.layers.end() && d->second > 0) {
      v.push_back(n->second / d->second);
    }
  }
  return Median(v);
}

std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds, double setup_s) {
  double requests = 0;
  double completed = 0;
  double record_wall = 0;
  double advice = 0;
  std::vector<double> latencies, server_cpu, audit, audit_cpu, audit_rss, reject;
  for (const RoundResult& r : rounds) {
    requests += static_cast<double>(r.requests);
    completed += static_cast<double>(r.latencies_ms.size());
    record_wall += r.record_wall_s;
    advice += r.packed_advice_bytes;
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    server_cpu.push_back(r.server_cpu_s);
    audit.push_back(r.audit_s);
    audit_cpu.push_back(r.audit_cpu_s);
    audit_rss.push_back(r.audit_rss_mb);
    reject.push_back(r.reject_s);
  }
  return {
      {"setup_s", "s", setup_s},
      {"record_rps", "req/s", record_wall > 0 ? completed / record_wall : 0},
      {"record_p50_ms", "ms", Percentile(latencies, 0.50)},
      {"record_p99_ms", "ms", Percentile(latencies, 0.99)},
      {"record_cpu_s", "s", Median(server_cpu)},
      {"advice_bytes_per_req", "B/req", requests > 0 ? advice / requests : 0},
      {"audit_s", "s", Median(audit)},
      {"audit_cpu_s", "s", Median(audit_cpu)},
      {"audit_peak_rss_mb", "MB", Median(audit_rss)},
      {"reject_s", "s", Median(reject)},
  };
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& rounds) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, const char* unit) {
    out.push_back({name, unit, MedianOf(rounds, name)});
  };
  for (const char* name :
       {"workload.generate_s", "net.frame_encode_s", "net.frame_decode_s", "net.serve_s"}) {
    add(name, "s");
  }
  add("net.frames", "count");
  add("net.read_disables", "count");
  add("net.peak_buffered_bytes", "B");
  for (const char* name :
       {"server.inject_s", "server.step_s", "server.plain_step_s", "server.finish_s"}) {
    add(name, "s");
  }
  for (const char* name : {"server.handler_activations", "server.ops_executed",
                           "server.var_accesses", "server.var_log_entries"}) {
    add(name, "count");
  }
  out.push_back({"server.logged_per_access", "ratio",
                 MedianRatio(rounds, "server.var_log_entries", "server.var_accesses")});
  for (const char* name : {"txkv.state_ops", "txkv.conflicts", "txkv.retry_responses"}) {
    add(name, "count");
  }
  add("kseg.slice_s", "s");
  add("kseg.encode_s", "s");
  for (const char* name :
       {"kseg.raw_advice_bytes", "kseg.packed_advice_bytes", "advice.tags_bytes",
        "advice.handler_logs_bytes", "advice.var_logs_bytes", "advice.tx_logs_bytes",
        "advice.write_order_bytes"}) {
    add(name, "B");
  }
  for (const char* name : {"analysis.load_s", "analysis.check_s", "verifier.feed_s",
                           "verifier.feed_noprescreen_s", "verifier.finish_s"}) {
    add(name, "s");
  }
  add("verifier.peak_resident_bytes", "B");
  for (const char* name :
       {"verifier.epochs", "verifier.groups", "verifier.handler_executions",
        "verifier.ops_executed", "verifier.graph_nodes", "verifier.graph_edges",
        "verifier.isolation_dg_edges"}) {
    add(name, "count");
  }
  out.push_back({"verifier.lanes_per_execution", "ratio",
                 MedianRatio(rounds, "verifier.handler_lanes", "verifier.handler_executions")});
  add("verifier.reject_epoch", "count");
  for (const char* name : {"verifier.reject_feed_s", "adya.check_s", "audit.other_s",
                           "baseline.sequential_s"}) {
    add(name, "s");
  }
  // Reference figures (README "Reference figures").
  out.push_back({"ref.audit_s", "s", MedianOf(rounds, "audit_s")});
  out.push_back({"ref.reject_s", "s", MedianOf(rounds, "reject_s")});
  out.push_back(
      {"ref.plain_rps", "req/s", MedianRatio(rounds, "server.requests", "server.plain_run_s")});
  out.push_back({"ref.record_rps_inprocess", "req/s",
                 MedianRatio(rounds, "server.requests", "server.record_run_s")});
  add("trace.spans", "count");
  out.push_back(
      {"trace.span_cost_s", "s", MedianOf(rounds, "trace.spans") * Tracer::CostPerSpanSeconds()});
  add("trace.record_traced_s", "s");
  add("trace.record_untraced_s", "s");
  return out;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// A run must end within three minutes; past that, the alarm ends the driver
// and the forked processes die with it.
constexpr unsigned kWatchdogSeconds = 170;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const double process_start = Now();
  alarm(kWatchdogSeconds);
  const bool serve = argc > 1 && std::strcmp(argv[1], "--serve") == 0;
  std::optional<Options> opt = serve ? ParseArgs(argc - 1, argv + 1) : ParseArgs(argc, argv);
  const WorkloadSpec* spec = opt ? FindWorkload(opt->workload) : nullptr;
  if (serve && spec != nullptr && !opt->work_dir.empty() && opt->ready_fd >= 0) {
    return Serve(*spec, opt->seed, opt->work_dir, opt->ready_fd);
  }
  if (serve || spec == nullptr || opt->cli.empty() || opt->work_dir.empty() ||
      opt->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload stacks-wire|wiki-wire|auction-wire --seed N "
                 "--seconds S --trace 0|1 --cli PATH --work-dir DIR\n");
    return 2;
  }
  AuditSpawner audits(opt->cli, spec->app, spec->epoch_requests);
  if (!audits.Start()) {
    std::fprintf(stderr, "perfbench: could not start the audit spawner\n");
    return 1;
  }
  const AppSpec app = MakeApp(spec->app);
  RoundRunner runner(*opt, *spec, app, &audits);

  std::vector<RoundResult> rounds;
  size_t attempted = 0;
  size_t failed = 0;
  std::string error;
  for (uint64_t round = 0; round == 0 || Now() - process_start < opt->seconds; ++round) {
    RoundResult r = runner.Run(round);
    if (!r.fatal.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", r.fatal.c_str());
      return 1;
    }
    attempted += r.requests;
    failed += r.failed;
    std::fprintf(stderr,
                 "round %llu: %zu requests in %.3fs, server cpu %.3fs, advice %.0f B, "
                 "audit %.3fs (cpu %.3fs, rss %.1f MB), reject %.3fs\n",
                 static_cast<unsigned long long>(round), r.requests, r.record_wall_s,
                 r.server_cpu_s, r.packed_advice_bytes, r.audit_s, r.audit_cpu_s,
                 r.audit_rss_mb, r.reject_s);
    error = r.error;
    rounds.push_back(std::move(r));
    if (!error.empty()) {
      break;  // A failed check ends the run; its result reads correct=false.
    }
  }
  const double setup_s = rounds.front().connected_at - process_start;

  std::printf("perfbench %s seed %llu: %zu rounds, %zu requests, %zu failed%s%s\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt->seed), rounds.size(),
              attempted, failed, error.empty() ? "" : ", CHECK FAILED: ", error.c_str());
  if (opt->trace) {
    const std::string spans = opt->work_dir + "/spans.tsv";
    if (!runner.tracer().Write(spans)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", spans.c_str());
      return 1;
    }
    std::printf("spans: %zu -> %s\n", runner.tracer().size(), spans.c_str());
  }
  PrintResult(error.empty(), attempted, failed,
              opt->trace ? PerLayer(rounds) : EndToEnd(rounds, setup_s));
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
