// perfbench_loadgen: the end-to-end benchmark's load generator. It starts
// the shipped xpathsat_server as a child process on a unix socket, drives
// one workload through client::Client over two connections, checks every
// verdict against the facade, and prints the metrics.
//
//   perfbench_loadgen --workload W --seed N --seconds S --trace 0|1
//                     --server PATH --workdir DIR --detail FILE
//                     [--spans FILE]
//
// Traffic shape, shared by every workload:
//   * bulk connection: a closed loop keeping up to kBulkDepth queries in
//     flight, refilled kRefill at a time (single `query` lines, or `batch
//     16` units on zipf_checkpoint), written through Client::SendRaw
//     without waiting for acks, so the server, not the round trip, paces
//     the loop;
//   * probe connection: an open loop at kProbeRate req/s. A probe's latency
//     is timed from when it was due, so a stall counts against every probe
//     queued behind it; how late the generator itself ran is reported too.
// The load generator uses four threads while traffic runs: the bulk
// submitter, the probe loop, and one reader per connection.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the timed window is split into an untraced and a traced half
// (client spans recorded) and the run then replays the traced half's
// requests through each layer in-process (perfbench/layers.h); the last
// line carries the per-layer metrics. --detail receives every metric with
// its sample count, --spans the span log.
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/measure.h"
#include "perfbench/workloads.h"
#include "src/client/client.h"
#include "src/engine/sat_engine.h"
#include "src/sat/satisfiability.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"
#include "src/xml/dtd.h"
#include "src/xpath/parser.h"

namespace perfbench {
namespace {

using xpathsat::Rng;
using xpathsat::SatVerdict;
using xpathsat::client::Client;
using xpathsat::client::ClientOptions;
using xpathsat::client::QueryOutcome;
using xpathsat::util::CondVar;
using xpathsat::util::Mutex;
using xpathsat::util::MutexLock;

constexpr int kBulkDepth = 32;
// The bulk loop refills this many slots per write.
constexpr int kRefill = 16;
constexpr int kBatchSize = 16;
constexpr int kProbeRate = 100;
constexpr int kServerThreads = 2;
constexpr int kHotDistinct = 200;
// 4x the engine's default memo_capacity (8192).
constexpr int kZipfDistinct = 4 * 8192;
constexpr double kZipfExponent = 1.0;
// Server launches per run, half before the timed traffic and half after it,
// so the median (setup_s) samples the host at both ends of the run.
constexpr int kSetupRounds = 26;
// Upper bound on the cold workload's request rate, which sizes its pool of
// distinct queries (generated before the server starts). Running out fails
// the run instead of repeating a query. The pipelined bulk loop serves about
// 12k req/s on a 4-vCPU guest, so this leaves room for a 2.4x faster server.
constexpr double kColdMaxRate = 30000;
// Distinct requests the traced mode replays in-process.
constexpr size_t kReplayCap = 3000;
constexpr int kDrainSeconds = 60;
// The window is cut into slices of this many probe periods (50 ms); each
// records the host's steal and the server's CPU time over it.
constexpr int kSliceProbes = 5;
// When fewer than this share of the slices saw no steal at all, the slices
// that saw no more than the median slice count as clean instead.
constexpr double kMinCleanShare = 0.1;
// The probe loop sleeps until this long before a probe is due and spins the
// rest, so how late the kernel wakes the load generator's own thread does
// not count as server latency.
constexpr int64_t kProbeSpinNs = 500LL * 1000;

// The metric names BENCHMARK.json declares, in the final line's order.
// Throughput, latency and probe percentiles are measured and reported (and
// land in the detail file) but not declared: on a shared virtual machine
// the hypervisor's steal moves them by more than any bound the benchmark
// may set, even over clean slices alone, while the server's CPU time per
// verdict stays put (CHANGES.md has the measured spreads).
const char* const kEndToEnd[] = {"ok_fraction", "server_cpu_us_per_query",
                                 "server_peak_rss_mb", "setup_s"};
const char* const kPerLayer[] = {
    "util.pool_handoff_ns",
    "util.pool_handoff_ns.contended",
    "obs.histogram_record_ns.contended",
    "obs.route_increment_ns.contended",
    "xpath.parse_us",
    "xpath.features_us",
    "sat.compile_dtd_us",
    "sat.decide_us",
    "sat.decide_p99_us",
    "sat.decide_us.reach-dp",
    "sat.decide_us.sibling-nfa",
    "sat.decide_us.djfree-dp",
    "sat.route_share.reach-dp",
    "sat.route_share.sibling-nfa",
    "sat.route_share.djfree-dp",
    "sat.route_share.updown-rewrite",
    "sat.route_share.skeleton",
    "sat.route_share.bounded-model",
    "engine.hit_us",
    "engine.hit_p99_us",
    "engine.hit_qps.contended",
    "engine.miss_us",
    "engine.overhead_us",
    "engine.memo_hit_ratio",
    "engine.query_cache_hit_ratio",
    "engine.rewrite_hit_ratio",
    "store.save_ms",
    "store.load_ms",
    "store.snapshot_kb",
    "server.parse_line_ns",
    "server.format_result_ns",
    "server.flush_rtt_us",
    "client.submit_ns",
    "client.probe_lag_p99_us",
    "trace.overhead_ratio"};

// The running server, so a fatal error on any thread can stop it first.
std::atomic<pid_t> g_server_pid{-1};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  pid_t pid = g_server_pid.exchange(-1);
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::fflush(stdout);
  std::_Exit(2);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string detail;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--server") {
      a.server = value;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--detail") {
      a.detail = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload != "hot_repeat" && a.workload != "cold_decide" &&
      a.workload != "zipf_checkpoint") {
    Die("--workload must be hot_repeat, cold_decide or zipf_checkpoint");
  }
  if (!have_seed || !have_trace || a.seconds < 1 || a.seconds > 600 ||
      a.server.empty() || a.workdir.empty() || a.detail.empty()) {
    Die("usage: --workload W --seed N --seconds S --trace 0|1 --server PATH "
        "--workdir DIR --detail FILE [--spans FILE]");
  }
  return a;
}

// ---------------------------------------------------------------------------
// The server under test, as a child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Starts `argv` with its stdout on a pipe and waits for its `listening`
  // line. The child gets SIGKILL if this process dies first, and runs on
  // `cpus` when that set is not empty.
  void Start(const std::vector<std::string>& argv, const cpu_set_t& cpus) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) Die("pipe failed");
    int log = open("server.log", O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
    if (log < 0) Die("cannot open server.log");
    std::vector<char*> cargv;
    for (const std::string& s : argv) {
      cargv.push_back(const_cast<char*>(s.c_str()));
    }
    cargv.push_back(nullptr);
    // vfork, not fork: the load generator may hold hundreds of MB of
    // generated queries, and copying its page tables would be timed as
    // server set-up. The child only makes system calls before execv.
    pid_ = vfork();
    if (pid_ < 0) Die("vfork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (CPU_COUNT(&cpus) > 0) sched_setaffinity(0, sizeof(cpus), &cpus);
      dup2(fds[1], STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      execv(cargv[0], cargv.data());
      _exit(127);
    }
    close(log);
    close(fds[1]);
    out_fd_ = fds[0];
    g_server_pid.store(pid_);
    std::string seen;
    int64_t deadline = NowNs() + 30LL * 1000 * 1000 * 1000;
    while (seen.find("listening unix") == std::string::npos) {
      int64_t left_ms = (deadline - NowNs()) / 1000000;
      if (left_ms <= 0) Die("server did not report listening (see server.log)");
      pollfd p{out_fd_, POLLIN, 0};
      int r = poll(&p, 1, static_cast<int>(left_ms));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) continue;
      char buf[256];
      ssize_t got = read(out_fd_, buf, sizeof(buf));
      if (got <= 0) Die("server exited before listening (see server.log)");
      seen.append(buf, static_cast<size_t>(got));
    }
  }

  // SIGTERM, then wait; SIGKILL if it has not exited after 20s.
  void Stop() {
    if (pid_ <= 0) return;
    g_server_pid.store(-1);
    kill(pid_, SIGTERM);
    int64_t deadline = NowNs() + 20LL * 1000 * 1000 * 1000;
    for (;;) {
      int status = 0;
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(2000);
    }
    pid_ = -1;
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid() const { return pid_; }

  // utime + stime in microseconds, from /proc/PID/stat.
  double CpuUs() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    size_t close_paren = text.rfind(')');
    if (close_paren == std::string::npos) Die("cannot read server stat");
    std::istringstream rest(text.substr(close_paren + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    // Fields 3..13 precede utime (14) and stime (15).
    for (int i = 3; i <= 13; ++i) rest >> field;
    rest >> utime >> stime;
    return static_cast<double>(utime + stime) * 1e6 /
           static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  // VmHWM (peak resident set) in MB, from /proc/PID/status.
  double PeakRssMb() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    Die("cannot read server VmHWM");
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// ---------------------------------------------------------------------------
// Requests in flight and their outcomes.

// One request as the load generator saw it.
struct Rec {
  const Request* req = nullptr;
  int64_t start_ns = 0;  // bulk: before the submit call; probe: due time
  int64_t acked_ns = 0;  // bulk: the ack arrived
  int64_t done_ns = 0;   // result line arrived
  // 's', 'u', 'k', 'e' (a verdict word the protocol does not define); 0
  // while pending or failed.
  char verdict = 0;
  // err ack, error result, transport failure, or no reply.
  bool failed = false;
  uint64_t ticket = 0;
};

char VerdictCode(const std::string& v) {
  if (v == "sat") return 's';
  if (v == "unsat") return 'u';
  if (v == "unknown") return 'k';
  return 'e';
}

char VerdictCode(SatVerdict v) {
  switch (v) {
    case SatVerdict::kSat: return 's';
    case SatVerdict::kUnsat: return 'u';
    case SatVerdict::kUnknown: return 'k';
  }
  return 'e';
}

// Records and in-flight accounting for one connection. Callbacks run on
// the connection's reader thread; submitters wait here for a free slot.
class Flight {
 public:
  // Appends one record per request (stable addresses) and returns them.
  std::vector<Rec*> Add(const std::vector<const Request*>& reqs,
                        int64_t start_ns) {
    MutexLock lock(mu_);
    std::vector<Rec*> out;
    for (const Request* r : reqs) {
      recs_.emplace_back();
      recs_.back().req = r;
      recs_.back().start_ns = start_ns;
      out.push_back(&recs_.back());
    }
    inflight_ += static_cast<int>(reqs.size());
    return out;
  }

  // Waits until at least `n` of `depth` slots are free.
  void WaitForRoom(int n, int depth) {
    MutexLock lock(mu_);
    while (inflight_ + n > depth) {
      wake_at_ = depth - n;
      cv_.Wait(mu_);
    }
    wake_at_ = -1;
  }

  void Finish(int n) {
    MutexLock lock(mu_);
    inflight_ -= n;
    // Wake a waiting submitter only once its room is there, not on every
    // reply.
    if (inflight_ <= wake_at_ || inflight_ == 0) cv_.NotifyAll();
  }

  // Waits until nothing is in flight; false on timeout.
  bool Drain(int seconds) {
    MutexLock lock(mu_);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (inflight_ > 0) {
      if (!cv_.WaitUntil(mu_, deadline) && inflight_ > 0) return false;
    }
    return true;
  }

  // Only after the connection is closed (no callback can still run).
  std::deque<Rec>& recs() { return recs_; }

 private:
  Mutex mu_;
  CondVar cv_;
  int inflight_ GUARDED_BY(mu_) = 0;
  int wake_at_ GUARDED_BY(mu_) = -1;  // in flight at most this: notify
  std::deque<Rec> recs_;  // appended under mu_; read after the run
};

// Fills `rec` from a result callback.
void Complete(Rec* rec, const xpathsat::Status& st, const QueryOutcome& o) {
  rec->done_ns = NowNs();
  rec->ticket = o.ticket_id;
  if (!st.ok() || o.verdict == "error") {
    rec->failed = true;
  } else {
    rec->verdict = VerdictCode(o.verdict);
  }
}

// Client spans of one request: client.submit covers its whole client-side
// life, client.ack the submit call (ack included), client.result the wait
// for the result line after the ack.
void RecordClientSpans(SpanLog* log, uint64_t id, int64_t start,
                       int64_t acked, int64_t done) {
  // The reader can deliver the result before the submitter has returned
  // from the call that waited for the ack: the two then end together.
  if (acked <= 0 || acked > done) acked = done;
  int64_t root = log->Add(id, -1, "client.submit", start, done);
  log->Add(id, root, "client.ack", start, acked);
  log->Add(id, root, "client.result", acked, done);
}

// The bulk connection's closed loop. The connection is in raw mode
// (Client::SendRaw plus a line tap): whenever kRefill of the kBulkDepth
// slots are free, the submitter writes kRefill requests in one write (single
// `query` lines, or one `batch 16` header with its members) and never waits
// for an ack; the client's reader thread hands every reply line to OnLine,
// which matches acks in order (the server acks in input order) and result
// lines by ticket id. So the server always has kBulkDepth requests to work
// on, and the loop measures how fast it serves them, not one round trip.
class BulkLoop {
 public:
  // `next` yields the next unit: one request, or kBatchSize requests of one
  // schema when batching. Installs itself as `client`'s line tap; the
  // previous loop on the client must have drained.
  BulkLoop(Client* client, const std::vector<Schema>* schemas, bool batch,
           std::function<std::vector<const Request*>()> next, SpanLog* spans,
           std::vector<double>* submit_ns)
      : client_(client), schemas_(schemas), batch_(batch),
        next_(std::move(next)), spans_(spans), submit_ns_(submit_ns) {
    client_->set_line_tap([this](const std::string& line) { OnLine(line); });
  }
  BulkLoop(const BulkLoop&) = delete;
  BulkLoop& operator=(const BulkLoop&) = delete;

  // Runs until `stop` is set or `max_requests` were sent. Each write
  // carries kRefill requests: kRefill single `query` lines, or one batch
  // unit, sent once that many slots are free.
  void Run(const std::atomic<bool>* stop, uint64_t max_requests) {
    uint64_t sent = 0;
    while (!stop->load(std::memory_order_relaxed) && sent < max_requests) {
      std::vector<std::vector<const Request*>> units;
      int n = 0;
      while (n < kRefill) {
        units.push_back(next_());
        n += static_cast<int>(units.back().size());
      }
      flight_.WaitForRoom(n, kBulkDepth);
      std::string wire;
      for (const std::vector<const Request*>& unit : units) {
        const std::string& schema = (*schemas_)[unit[0]->schema].name;
        if (batch_) wire += "batch " + std::to_string(unit.size()) + "\n";
        for (const Request* r : unit) {
          wire += "query " + schema + " " + r->query + "\n";
        }
      }
      wire.pop_back();  // SendRaw ends the last line
      int64_t t0 = NowNs();
      {
        MutexLock lock(mu_);
        for (const std::vector<const Request*>& unit : units) {
          awaiting_ack_.push_back(flight_.Add(unit, t0));
        }
      }
      sent += static_cast<uint64_t>(n);
      xpathsat::Status st = client_->SendRaw(wire);
      if (submit_ns_ != nullptr) {
        submit_ns_->push_back(static_cast<double>(NowNs() - t0) / n);
      }
      // A failed write fails the transport: whatever is still pending
      // counts as failed (no reply) when the window drains.
      if (!st.ok()) break;
    }
  }

  // One reply line, on the client's reader thread.
  void OnLine(const std::string& line) {
    int64_t now = NowNs();
    if (!line.empty() && line[0] >= '1' && line[0] <= '9') {
      // Result line: `ID [verdict] QUERY -- ...`.
      uint64_t id = std::strtoull(line.c_str(), nullptr, 10);
      Rec* rec = nullptr;
      {
        MutexLock lock(mu_);
        auto it = by_ticket_.find(id);
        if (it == by_ticket_.end()) return;
        rec = it->second;
        by_ticket_.erase(it);
      }
      rec->done_ns = now;
      std::string verdict = ResultVerdict(line);
      if (verdict == "error" || verdict.empty()) {
        rec->failed = true;
      } else {
        rec->verdict = VerdictCode(verdict);
      }
      if (spans_ != nullptr && !rec->failed) {
        RecordClientSpans(spans_, id, rec->start_ns, rec->acked_ns, now);
      }
      flight_.Finish(1);
      return;
    }
    const bool query_ack = line.rfind("ok query ", 0) == 0;
    const bool batch_ack = line.rfind("ok batch ", 0) == 0;
    const bool error = line.rfind("err ", 0) == 0;
    // `ok batch SEQ done` barriers are not acks.
    if (batch_ack && line.size() >= 5 &&
        line.compare(line.size() - 5, 5, " done") == 0) {
      return;
    }
    if (!query_ack && !batch_ack && !error) return;
    std::vector<Rec*> unit;
    {
      MutexLock lock(mu_);
      if (awaiting_ack_.empty()) return;
      unit = std::move(awaiting_ack_.front());
      awaiting_ack_.pop_front();
      if (!error) {
        // `ok query ID` or `ok batch SEQ ids ID...`, ids in member order.
        std::istringstream ids(
            line.substr(query_ack ? 9 : line.find(" ids ") + 5));
        for (Rec* rec : unit) {
          uint64_t id = 0;
          if (!(ids >> id) || id == 0) break;
          rec->ticket = id;
          rec->acked_ns = now;
          by_ticket_[id] = rec;
        }
      }
    }
    // An err ack, or an ack missing ids: those requests get no result.
    int unanswered = 0;
    for (Rec* rec : unit) {
      if (rec->ticket != 0) continue;
      rec->failed = true;
      rec->done_ns = now;
      ++unanswered;
    }
    if (unanswered > 0) flight_.Finish(unanswered);
  }

  Flight& flight() { return flight_; }

 private:
  // The verdict word of a result line, `ID [sat    ] ...`.
  static std::string ResultVerdict(const std::string& line) {
    size_t open = line.find('[');
    size_t close = open == std::string::npos ? open : line.find(']', open);
    if (close == std::string::npos) return "";
    std::string v = line.substr(open + 1, close - open - 1);
    while (!v.empty() && v.back() == ' ') v.pop_back();
    return v;
  }

  Client* client_;
  const std::vector<Schema>* schemas_;
  bool batch_;
  std::function<std::vector<const Request*>()> next_;
  SpanLog* spans_;
  std::vector<double>* submit_ns_;
  Flight flight_;
  Mutex mu_;
  // Units written and not yet acked, in write order.
  std::deque<std::vector<Rec*>> awaiting_ack_ GUARDED_BY(mu_);
  // Acked requests waiting for their result line.
  std::unordered_map<uint64_t, Rec*> by_ticket_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// The workloads' inputs.

struct Inputs {
  std::vector<Schema> schemas;
  // Every request the workload can send lives here (stable addresses).
  std::deque<Request> pool;
  // Bulk / probe unit sources; deterministic per seed.
  std::function<std::vector<const Request*>()> next_bulk;
  std::function<const Request*()> next_probe;
  bool batch = false;
  bool checkpoint = false;
  uint64_t warmup_requests = 0;
};

// The unit sources hold pointers into the returned object, which must stay
// where it is: hence the unique_ptr.
std::unique_ptr<Inputs> MakeInputs(const Args& args) {
  auto in = std::make_unique<Inputs>();
  Rng seeded(args.seed * 0x9e3779b97f4a7c15ULL + 17);
  if (args.workload == "hot_repeat") {
    in->schemas.push_back(CatalogSchema());
    for (std::string& q : HotQueryPool(&seeded, kHotDistinct)) {
      in->pool.push_back(Request{0, std::move(q)});
    }
    auto bulk_rng = std::make_shared<Rng>(seeded.Next());
    auto probe_rng = std::make_shared<Rng>(seeded.Next());
    auto warm = std::make_shared<size_t>(0);
    Inputs* raw = in.get();
    // The untimed warm-up sends every pool entry once, so the timed window
    // is memo hits only.
    in->next_bulk = [raw, bulk_rng, warm]() -> std::vector<const Request*> {
      if (*warm < raw->pool.size()) return {&raw->pool[(*warm)++]};
      return {&raw->pool[bulk_rng->Below(raw->pool.size())]};
    };
    in->next_probe = [raw, probe_rng]() {
      return &raw->pool[probe_rng->Below(raw->pool.size())];
    };
    in->warmup_requests = 4 * kHotDistinct;
  } else if (args.workload == "cold_decide") {
    in->schemas = {CatalogSchema(), RecursiveSchema(), DisjunctiveSchema()};
    QueryGenerator gen(seeded.Next(), in->schemas);
    size_t n = static_cast<size_t>(kColdMaxRate * (args.seconds + 1));
    std::vector<Request> fresh;
    fresh.reserve(n);
    for (size_t i = 0; i < n; ++i) fresh.push_back(gen.Next());
    // Deduplication leaves the generator's later queries longer than its
    // early ones; shuffled, the mix is the same at every point of the run,
    // however fast the server goes through it.
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(fresh[i], fresh[seeded.Below(i + 1)]);
    }
    for (Request& r : fresh) in->pool.push_back(std::move(r));
    // Bulk takes from the front, probes from the back (two threads); they
    // must not meet.
    auto front = std::make_shared<std::atomic<size_t>>(0);
    auto back = std::make_shared<std::atomic<size_t>>(n);
    Inputs* raw = in.get();
    in->next_bulk = [raw, front, back]() -> std::vector<const Request*> {
      if (*front >= *back) Die("cold_decide ran out of distinct queries");
      return {&raw->pool[front->fetch_add(1)]};
    };
    in->next_probe = [raw, front, back]() {
      if (*front >= *back) Die("cold_decide ran out of distinct queries");
      return &raw->pool[back->fetch_sub(1) - 1];
    };
    in->warmup_requests = 2000;
  } else {
    ZipfSet set = MakeZipfSet(seeded.Next(), kZipfDistinct);
    in->schemas = std::move(set.schemas);
    for (Request& r : set.pairs) in->pool.push_back(std::move(r));
    auto sampler = std::make_shared<ZipfSampler>(in->pool.size(), kZipfExponent);
    auto bulk_rng = std::make_shared<Rng>(seeded.Next());
    auto probe_rng = std::make_shared<Rng>(seeded.Next());
    auto pending = std::make_shared<std::vector<std::vector<const Request*>>>(
        in->schemas.size());
    Inputs* raw = in.get();
    // Zipf draws over all pairs, grouped per schema into batch units (a
    // batch names one schema); the draw frequencies are unchanged.
    in->next_bulk = [raw, sampler, bulk_rng, pending]() {
      for (;;) {
        const Request* r = &raw->pool[sampler->Draw(bulk_rng.get())];
        std::vector<const Request*>& p = (*pending)[r->schema];
        p.push_back(r);
        if (p.size() == static_cast<size_t>(kBatchSize)) {
          std::vector<const Request*> unit;
          unit.swap(p);
          return unit;
        }
      }
    };
    in->next_probe = [raw, sampler, probe_rng]() {
      return &raw->pool[sampler->Draw(probe_rng.get())];
    };
    in->batch = true;
    in->checkpoint = true;
    in->warmup_requests = 20000;
  }
  return in;
}

// ---------------------------------------------------------------------------
// One run.

// Where the processes run while traffic flows. With four or more CPUs the
// server gets two of its own and the load generator's threads share two
// others, so neither side's scheduling noise lands on the other. The probe
// threads share their CPUs with the busy bulk loop on purpose: a CPU kept
// busy wakes a probe thread at once, where an idle virtual CPU can take
// milliseconds to be scheduled again. Set-up (setup_s) runs both processes
// on one CPU: each of its round trips then hands the CPU over instead of
// waking an idle virtual CPU, whose wake-up time the host decides. With
// fewer CPUs nothing is pinned.
struct Placement {
  cpu_set_t all;
  cpu_set_t server;
  cpu_set_t client;
  cpu_set_t setup;
};

Placement Place() {
  Placement p;
  CPU_ZERO(&p.server);
  if (sched_getaffinity(0, sizeof(p.all), &p.all) != 0) Die("sched_getaffinity");
  p.client = p.all;
  p.setup = p.all;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &p.all)) cpus.push_back(c);
  }
  if (cpus.size() < 4) return p;
  CPU_ZERO(&p.client);
  CPU_SET(cpus[0], &p.client);
  CPU_SET(cpus[1], &p.client);
  CPU_SET(cpus[2], &p.server);
  CPU_SET(cpus[3], &p.server);
  CPU_ZERO(&p.setup);
  CPU_SET(cpus[0], &p.setup);
  return p;
}

// Pins every thread of process `pid` (0: this one); threads started
// afterwards inherit the set.
void Pin(const cpu_set_t& cpus, pid_t pid = 0) {
  std::string dir = "/proc/" + (pid ? std::to_string(pid) : "self") + "/task";
  DIR* tasks = opendir(dir.c_str());
  if (tasks == nullptr) Die("cannot list " + dir);
  while (dirent* e = readdir(tasks)) {
    pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    // A thread may have exited since the listing: ESRCH is not an error.
    if (tid > 0 && sched_setaffinity(tid, sizeof(cpus), &cpus) != 0 &&
        errno != ESRCH) {
      Die("sched_setaffinity");
    }
  }
  closedir(tasks);
}

std::unique_ptr<Client> Connect(bool batch) {
  ClientOptions options;
  options.target = "unix:s.sock";
  options.negotiate_batch = batch;
  auto c = Client::Connect(options);
  if (!c.ok()) Die("connect: " + c.error());
  if (batch && !c.value()->batch_granted()) Die("server declined batch");
  return std::move(c).value();
}

void Register(Client* c, const std::vector<Schema>& schemas) {
  for (const Schema& s : schemas) {
    auto reply = c->Call("dtd " + s.name + " " + s.name + ".dtd");
    if (!reply.ok() || reply.value().rfind("ok dtd", 0) != 0) {
      Die("dtd " + s.name + ": " +
          (reply.ok() ? reply.value() : reply.error()));
    }
  }
}

// Engine counters from a `stats` reply.
struct Counters {
  double memo_hits = 0, memo_misses = 0, query_hits = 0, query_misses = 0,
         rewrite_hits = 0, rewrite_misses = 0;
};

Counters ReadCounters(Client* c) {
  auto reply = c->Call("stats");
  if (!reply.ok() || reply.value().rfind("stats {", 0) != 0) {
    Die("stats failed");
  }
  const std::string& text = reply.value();
  auto field = [&](const char* name) {
    std::string key = std::string("\"") + name + "\": ";
    size_t at = text.find(key);
    if (at == std::string::npos) Die(std::string("stats lacks ") + name);
    return std::strtod(text.c_str() + at + key.size(), nullptr);
  };
  Counters k;
  k.memo_hits = field("memo_hits");
  k.memo_misses = field("memo_misses");
  k.query_hits = field("query_cache_hits");
  k.query_misses = field("query_cache_misses");
  k.rewrite_hits = field("rewrite_cache_hits");
  k.rewrite_misses = field("rewrite_cache_misses");
  return k;
}

double Ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

// One timed window: the bulk closed loop on its own thread, the probe open
// loop on this one.
struct Window {
  std::unique_ptr<BulkLoop> bulk;
  std::unique_ptr<Flight> probes;
  std::vector<double> lag_us;
  std::vector<double> save_ms;
  std::vector<double> submit_ns;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // One mark at each kSliceProbes boundary, start and end included.
  struct Mark {
    int64_t ns;
    double steal_jiffies;  // the host's, all CPUs (/proc/stat)
    double server_cpu_us;
  };
  std::vector<Mark> marks;
  // Share of the host's CPU time the hypervisor took away from this
  // machine during the window (/proc/stat steal): context for noisy runs.
  double steal_fraction = 0;
};

// (steal, total) jiffies of all CPUs, from /proc/stat.
std::pair<double, double> HostStealJiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double steal = 0, total = 0;
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    f >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::unique_ptr<Window> RunWindow(Client* bulk, Client* probe,
                                  const Inputs& in, double seconds,
                                  SpanLog* spans,
                                  const ServerProcess& server) {
  auto w = std::make_unique<Window>();
  w->bulk = std::make_unique<BulkLoop>(bulk, &in.schemas, in.batch,
                                       in.next_bulk, spans, &w->submit_ns);
  w->probes = std::make_unique<Flight>();
  std::atomic<bool> stop{false};
  std::pair<double, double> steal0 = HostStealJiffies();
  w->start_ns = NowNs();
  w->marks.push_back({w->start_ns, steal0.first, server.CpuUs()});
  w->end_ns = w->start_ns + static_cast<int64_t>(seconds * 1e9);
  std::thread submitter([&] {
    w->bulk->Run(&stop, std::numeric_limits<uint64_t>::max());
  });
  const int64_t period = 1000000000LL / kProbeRate;
  Flight* probes = w->probes.get();
  for (int64_t k = 0;; ++k) {
    int64_t due = w->start_ns + k * period;
    if (due >= w->end_ns) break;
    int64_t now = NowNs();
    if (now < due - kProbeSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - kProbeSpinNs - now));
    }
    while (NowNs() < due) {
    }
    if (k > 0 && k % kSliceProbes == 0) {
      w->marks.push_back({due, HostStealJiffies().first, server.CpuUs()});
    }
    if (in.checkpoint && k % kProbeRate == kProbeRate / 2) {
      // Once per second, mid-second: a snapshot written under live traffic.
      int64_t s0 = NowNs();
      auto reply = probe->Call("save live.snap");
      if (!reply.ok() || reply.value().rfind("ok save", 0) != 0) {
        Die("save failed: " + (reply.ok() ? reply.value() : reply.error()));
      }
      w->save_ms.push_back(static_cast<double>(NowNs() - s0) / 1e6);
    }
    const Request* req = in.next_probe();
    int64_t sent = NowNs();
    w->lag_us.push_back(static_cast<double>(sent - due) / 1e3);
    Rec* rec = probes->Add({req}, due)[0];
    auto r = probe->SubmitQuery(
        in.schemas[req->schema].name, req->query,
        [rec, probes](const xpathsat::Status& st, const QueryOutcome& o) {
          Complete(rec, st, o);
          probes->Finish(1);
        });
    if (!r.ok()) {
      rec->failed = true;
      rec->done_ns = NowNs();
      probes->Finish(1);
    }
  }
  int64_t now = NowNs();
  if (now < w->end_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(w->end_ns - now));
  }
  stop.store(true);
  std::pair<double, double> steal1 = HostStealJiffies();
  w->marks.push_back({w->end_ns, steal1.first, server.CpuUs()});
  if (steal1.second > steal0.second) {
    w->steal_fraction =
        (steal1.first - steal0.first) / (steal1.second - steal0.second);
  }
  submitter.join();
  // The next window's loop takes over the connection's line tap. Whatever
  // has not arrived by the deadline counts as failed (no reply).
  w->bulk->flight().Drain(kDrainSeconds);
  return w;
}

// Untimed prep of zipf_checkpoint: a snapshot of the most popular pairs'
// verdicts, which the server loads with --warm-from.
void WriteWarmSnapshot(const Inputs& in, const std::string& path, int threads) {
  xpathsat::SatEngineOptions options;
  options.num_threads = threads;
  xpathsat::SatEngine engine(options);
  std::vector<xpathsat::DtdHandle> handles;
  for (const Schema& s : in.schemas) {
    auto h = engine.RegisterDtdText(s.text);
    if (!h.ok()) Die("schema " + s.name + ": " + h.error());
    handles.push_back(h.value());
  }
  std::vector<xpathsat::SatRequest> batch;
  for (size_t i = 0; i < 8192 && i < in.pool.size(); ++i) {
    xpathsat::SatRequest r;
    r.query = in.pool[i].query;
    r.dtd = handles[in.pool[i].schema];
    r.options.compute_witness = false;
    batch.push_back(std::move(r));
  }
  engine.RunBatch(batch);
  xpathsat::SnapshotSaveResult saved = engine.SaveSnapshot(path);
  if (!saved.status.ok()) Die("warm snapshot: " + saved.status.message());
}

// Facade reference verdicts, DecideSatisfiability(parse(q), dtd), for every
// distinct request in `reqs`, on `threads` threads.
std::unordered_map<const Request*, SatVerdict> References(
    const std::vector<const Request*>& reqs,
    const std::vector<Schema>& schemas, int threads) {
  std::vector<xpathsat::Dtd> dtds;
  for (const Schema& s : schemas) {
    auto d = xpathsat::Dtd::Parse(s.text);
    if (!d.ok()) Die("schema " + s.name + ": " + d.error());
    dtds.push_back(std::move(d).value());
  }
  std::vector<SatVerdict> verdicts(reqs.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      xpathsat::SatOptions options;
      options.compute_witness = false;
      for (size_t i = next.fetch_add(1); i < reqs.size();
           i = next.fetch_add(1)) {
        auto p = xpathsat::ParsePath(reqs[i]->query);
        if (!p.ok()) Die("reference: query does not parse: " + reqs[i]->query);
        verdicts[i] = xpathsat::DecideSatisfiability(
                          *p.value(), dtds[reqs[i]->schema], options)
                          .decision.verdict;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  std::unordered_map<const Request*, SatVerdict> out;
  for (size_t i = 0; i < reqs.size(); ++i) out[reqs[i]] = verdicts[i];
  return out;
}

// Outcomes of one window, from raw per-request samples, over its clean
// slices: the 50 ms slices in which the hypervisor took no CPU time from
// the machine (/proc/stat steal). On a shared host a stolen slice stalls the
// whole pipeline of client, reactor and engine threads, whatever the program
// does, so the declared figures leave those slices out; the program's own
// stalls (a slow save, a lock convoy) land in clean slices like any other
// and count in full. When the host stole from nearly every slice
// (kMinCleanShare), the slices that lost no more than the median one count
// as clean instead.
//   throughput_qps: the median, over the clean slices, of the bulk verdicts
//     that arrived in a slice over its length;
//   latency and probe percentiles: the requests that started and finished
//     with only clean slices in between;
//   server_cpu_us_per_query: the server's CPU time over the clean slices
//     divided by the verdicts (bulk and probe) that arrived in them.
// The window's plain mean rate, every stall counted, is reported beside
// them (throughput_window_qps), as is the share of clean slices; neither is
// declared. The per-slice series go to the detail file.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bulk_ok = 0;  // bulk verdicts that arrived inside the window
  double throughput_qps = 0;
  uint64_t clean_slices = 0;
  double clean_share = 0;
  double throughput_window_qps = 0;
  std::vector<double> latency_us;
  std::vector<double> probe_us;
  double cpu_us_per_query = 0;
  uint64_t clean_verdicts = 0;  // bulk and probe, in clean slices
  // Per-slice series, by name.
  std::map<std::string, std::vector<double>> slices;
};

Outcome Summarize(const Window& w) {
  Outcome o;
  const std::vector<Window::Mark>& marks = w.marks;
  const size_t n = marks.size() - 1;
  std::vector<double>& steal = o.slices["steal_jiffies"];
  size_t stolen = 0;
  for (size_t i = 0; i < n; ++i) {
    steal.push_back(marks[i + 1].steal_jiffies - marks[i].steal_jiffies);
    if (steal.back() > 0) ++stolen;
  }
  double limit = 0;
  if (static_cast<double>(n - stolen) < kMinCleanShare * static_cast<double>(n)) {
    std::vector<double> sorted = steal;
    limit = Percentile(&sorted, 0.5);
  }
  // dirty_before[i]: slices before i that are not clean.
  std::vector<size_t> dirty_before(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    dirty_before[i + 1] = dirty_before[i] + (steal[i] > limit ? 1 : 0);
  }
  // The slice holding time t, or n when t is outside the window.
  auto slice_of = [&](int64_t t) -> size_t {
    auto after = std::upper_bound(
        marks.begin(), marks.end(), t,
        [](int64_t x, const Window::Mark& m) { return x < m.ns; });
    if (after == marks.begin() || after == marks.end()) return n;
    return static_cast<size_t>(after - marks.begin() - 1);
  };
  auto clean_span = [&](int64_t from, int64_t to) {
    size_t a = slice_of(from), b = slice_of(to);
    return a < n && b < n && dirty_before[b + 1] == dirty_before[a];
  };
  std::vector<double> done(n, 0);  // verdicts, bulk and probes
  std::vector<double> bulk_done(n, 0);
  for (const Rec& r : w.bulk->flight().recs()) {
    ++o.attempted;
    if (r.failed || r.verdict == 0) {
      ++o.failed;
      continue;
    }
    if (r.done_ns <= w.end_ns) ++o.bulk_ok;
    size_t s = slice_of(r.done_ns);
    if (s < n) {
      ++done[s];
      ++bulk_done[s];
    }
    if (clean_span(r.start_ns, r.done_ns)) {
      o.latency_us.push_back(static_cast<double>(r.done_ns - r.start_ns) / 1e3);
    }
  }
  for (const Rec& r : w.probes->recs()) {
    ++o.attempted;
    if (r.failed || r.verdict == 0) {
      ++o.failed;
      continue;
    }
    size_t s = slice_of(r.done_ns);
    if (s < n) ++done[s];
    if (clean_span(r.start_ns, r.done_ns)) {
      o.probe_us.push_back(static_cast<double>(r.done_ns - r.start_ns) / 1e3);
    }
  }
  std::vector<double>& qps = o.slices["bulk_qps"];
  std::vector<double> clean_qps;
  double clean_cpu_us = 0;
  for (size_t i = 0; i < n; ++i) {
    double secs = static_cast<double>(marks[i + 1].ns - marks[i].ns) / 1e9;
    qps.push_back(bulk_done[i] / secs);
    if (steal[i] > limit) continue;
    clean_qps.push_back(qps.back());
    clean_cpu_us += marks[i + 1].server_cpu_us - marks[i].server_cpu_us;
    o.clean_verdicts += static_cast<uint64_t>(done[i]);
  }
  o.clean_slices = clean_qps.size();
  o.clean_share = static_cast<double>(o.clean_slices) / static_cast<double>(n);
  o.throughput_qps = Percentile(&clean_qps, 0.5);
  o.cpu_us_per_query =
      clean_cpu_us / std::max(static_cast<double>(o.clean_verdicts), 1.0);
  double window_s = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
  o.throughput_window_qps = static_cast<double>(o.bulk_ok) / window_s;
  return o;
}

int Run(const Args& args) {
  int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (nproc < 1) nproc = 1;
  if (chdir(args.workdir.c_str()) != 0) Die("cannot enter " + args.workdir);

  // Inputs first: nothing below the server launch generates traffic.
  std::unique_ptr<Inputs> in = MakeInputs(args);
  for (const Schema& s : in->schemas) {
    std::ofstream f(s.name + ".dtd");
    f << s.text;
    if (!f) Die("cannot write " + s.name + ".dtd");
  }
  std::vector<std::string> server_argv = {
      args.server, "--unix", "s.sock", "--threads",
      std::to_string(kServerThreads)};
  if (in->checkpoint) {
    WriteWarmSnapshot(*in, "warm.snap", nproc);
    server_argv.push_back("--warm-from");
    server_argv.push_back("warm.snap");
  }

  // Set-up, several times: launch, listen (and the --warm-from load),
  // connect, register the schemas, all on placement.setup. The last launch
  // before the traffic serves the run; it and the load generator (the
  // clients' reader threads included) then move to their traffic CPUs.
  const Placement placement = Place();
  ServerProcess server;
  std::unique_ptr<Client> bulk, probe;
  std::vector<double> setup_s;
  auto set_up = [&] {
    Pin(placement.setup);
    bulk.reset();
    probe.reset();
    server.Stop();
    unlink("s.sock");
    int64_t t0 = NowNs();
    server.Start(server_argv, placement.setup);
    bulk = Connect(in->batch);
    probe = Connect(false);
    Register(bulk.get(), in->schemas);
    Register(probe.get(), in->schemas);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  };
  for (int round = 0; round < kSetupRounds / 2; ++round) set_up();
  Pin(placement.client);
  Pin(placement.server, server.pid());

  // Untimed warm-up on the bulk connection.
  BulkLoop warm(bulk.get(), &in->schemas, in->batch, in->next_bulk, nullptr,
                nullptr);
  std::atomic<bool> never{false};
  warm.Run(&never, in->warmup_requests);
  if (!warm.flight().Drain(kDrainSeconds)) Die("warm-up did not drain");

  Counters before = ReadCounters(probe.get());
  SpanLog spans;
  std::vector<std::unique_ptr<Window>> windows;
  if (!args.trace) {
    windows.push_back(RunWindow(bulk.get(), probe.get(), *in, args.seconds,
                                nullptr, server));
  } else {
    windows.push_back(RunWindow(bulk.get(), probe.get(), *in,
                                args.seconds / 2.0, nullptr, server));
    windows.push_back(RunWindow(bulk.get(), probe.get(), *in,
                                args.seconds / 2.0, &spans, server));
  }
  for (auto& w : windows) {
    // Whatever has not arrived by now counts as failed (no reply).
    w->bulk->flight().Drain(kDrainSeconds);
    w->probes->Drain(kDrainSeconds);
  }
  Counters after = ReadCounters(probe.get());

  // Idle-server measurements of the traced mode.
  std::vector<double> flush_us;
  std::vector<double> idle_save_ms;
  if (args.trace) {
    for (int i = 0; i < 200; ++i) {
      int64_t t0 = NowNs();
      xpathsat::Status st = probe->Flush();
      if (!st.ok()) Die("flush failed: " + st.message());
      flush_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    if (!in->checkpoint) {
      for (int i = 0; i < 3; ++i) {
        int64_t t0 = NowNs();
        auto reply = probe->Call("save live.snap");
        if (!reply.ok() || reply.value().rfind("ok save", 0) != 0) {
          Die("save failed");
        }
        idle_save_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      }
    }
  }
  double peak_rss_mb = server.PeakRssMb();
  // Closing the connections fails whatever is still pending; then no
  // callback can run and the records are stable.
  bulk.reset();
  probe.reset();
  server.Stop();
  for (int round = kSetupRounds / 2; round < kSetupRounds; ++round) set_up();
  bulk.reset();
  probe.reset();
  server.Stop();
  Pin(placement.all);

  // Correctness gate: every verdict the server returned, warm-up included,
  // against the facade. Computed after the server stopped.
  std::vector<const Request*> distinct;
  {
    std::unordered_set<const Request*> seen;
    auto collect = [&](std::deque<Rec>& recs) {
      for (const Rec& r : recs) {
        if (seen.insert(r.req).second) distinct.push_back(r.req);
      }
    };
    collect(warm.flight().recs());
    for (auto& w : windows) {
      collect(w->bulk->flight().recs());
      collect(w->probes->recs());
    }
  }
  auto reference = References(distinct, in->schemas, nproc);
  uint64_t mismatches = 0;
  auto check = [&](std::deque<Rec>& recs) {
    for (const Rec& r : recs) {
      if (r.failed || r.verdict == 0) continue;
      if (r.verdict != VerdictCode(reference.at(r.req))) {
        if (++mismatches <= 5) {
          std::fprintf(stderr,
                       "perfbench: verdict mismatch on %s @%s: server %c, "
                       "facade %c\n",
                       r.req->query.c_str(),
                       in->schemas[r.req->schema].name.c_str(), r.verdict,
                       VerdictCode(reference.at(r.req)));
        }
      }
    }
  };
  check(warm.flight().recs());
  for (auto& w : windows) {
    check(w->bulk->flight().recs());
    check(w->probes->recs());
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "perfbench: %llu verdicts disagree with the facade\n",
                 static_cast<unsigned long long>(mismatches));
    return 3;
  }

  // End-to-end metrics, from the (first, untraced) window.
  MetricMap e2e;
  const Window& w0 = *windows[0];
  Outcome o = Summarize(w0);
  uint64_t attempted = o.attempted;
  uint64_t failed = o.failed;
  Put(&e2e, "throughput_qps", o.throughput_qps, "req/s", o.clean_slices);
  Put(&e2e, "throughput_window_qps", o.throughput_window_qps, "req/s",
      o.bulk_ok);
  Put(&e2e, "clean_slice_share", o.clean_share, "ratio",
      o.slices["steal_jiffies"].size());
  uint64_t ln = o.latency_us.size();
  Put(&e2e, "latency_p50_us", Percentile(&o.latency_us, 0.5), "us", ln);
  Put(&e2e, "latency_p99_us", Percentile(&o.latency_us, 0.99), "us", ln);
  uint64_t pn = o.probe_us.size();
  Put(&e2e, "probe_p50_us", Percentile(&o.probe_us, 0.5), "us", pn);
  Put(&e2e, "probe_p99_us", Percentile(&o.probe_us, 0.99), "us", pn);
  double failed_fraction =
      static_cast<double>(failed) / static_cast<double>(attempted);
  Put(&e2e, "failed_fraction", failed_fraction, "ratio", attempted);
  Put(&e2e, "ok_fraction", 1.0 - failed_fraction, "ratio", attempted);
  Put(&e2e, "server_cpu_us_per_query", o.cpu_us_per_query, "us",
      o.clean_verdicts);
  Put(&e2e, "server_peak_rss_mb", peak_rss_mb, "MB", 1);
  const std::vector<double> setup_rounds = setup_s;
  uint64_t sn = setup_s.size();
  Put(&e2e, "setup_s", Percentile(&setup_s, 0.5), "s", sn);

  MetricMap layers;
  std::map<std::string, SpanTotals> self;
  if (args.trace) {
    const Window& w1 = *windows[1];
    Outcome traced = Summarize(w1);
    Put(&layers, "trace.overhead_ratio",
        traced.throughput_qps / o.throughput_qps, "ratio",
        traced.clean_slices);
    Put(&layers, "engine.memo_hit_ratio",
        Ratio(after.memo_hits - before.memo_hits,
              after.memo_misses - before.memo_misses),
        "ratio",
        static_cast<uint64_t>(after.memo_hits - before.memo_hits +
                              after.memo_misses - before.memo_misses));
    Put(&layers, "engine.query_cache_hit_ratio",
        Ratio(after.query_hits - before.query_hits,
              after.query_misses - before.query_misses),
        "ratio",
        static_cast<uint64_t>(after.query_hits - before.query_hits +
                              after.query_misses - before.query_misses));
    Put(&layers, "engine.rewrite_hit_ratio",
        Ratio(after.rewrite_hits - before.rewrite_hits,
              after.rewrite_misses - before.rewrite_misses),
        "ratio",
        static_cast<uint64_t>(after.rewrite_hits - before.rewrite_hits +
                              after.rewrite_misses - before.rewrite_misses));
    std::vector<double> save_ms = idle_save_ms;
    std::vector<double> lag_us;
    for (auto& w : windows) {
      save_ms.insert(save_ms.end(), w->save_ms.begin(), w->save_ms.end());
      lag_us.insert(lag_us.end(), w->lag_us.begin(), w->lag_us.end());
    }
    uint64_t n = save_ms.size();
    Put(&layers, "store.save_ms", Percentile(&save_ms, 0.5), "ms", n);
    struct stat st;
    if (stat("live.snap", &st) != 0) Die("no snapshot was written");
    Put(&layers, "store.snapshot_kb", static_cast<double>(st.st_size) / 1024,
        "KiB", 1);
    n = flush_us.size();
    Put(&layers, "server.flush_rtt_us", Percentile(&flush_us, 0.5), "us", n);
    std::vector<double> submit_ns = w1.submit_ns;
    n = submit_ns.size();
    Put(&layers, "client.submit_ns", Percentile(&submit_ns, 0.5), "ns", n);
    n = lag_us.size();
    Put(&layers, "client.probe_lag_p99_us", Percentile(&lag_us, 0.99), "us",
        n);

    // The in-process replay of the traced window's distinct requests,
    // under the ticket ids the server gave them.
    LayerInputs li;
    li.schemas = &in->schemas;
    li.reference = &reference;
    li.threads = nproc;
    li.engine_threads = kServerThreads;
    li.snapshot_path = "live.snap";
    std::unordered_set<const Request*> seen;
    for (const Rec& r : w1.bulk->flight().recs()) {
      if (li.items.size() >= kReplayCap) break;
      if (r.ticket != 0 && seen.insert(r.req).second) {
        li.items.push_back(ReplayItem{r.ticket, r.req});
      }
    }
    std::string error;
    if (!RunLayers(li, &spans, &layers, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 3;
    }
    std::vector<Span> all = spans.Take();
    self = SelfTimes(all);
    if (!args.spans.empty() && !WriteSpans(args.spans, all)) {
      Die("cannot write " + args.spans);
    }
  }

  // Human-readable report, then the detail file, then the result line.
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d nproc=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc);
  for (const MetricMap* m : {&e2e, &layers}) {
    for (const auto& [name, metric] : *m) {
      std::printf("  %-36s %14.4f %-6s n=%llu\n", name.c_str(), metric.value,
                  metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    }
  }
  std::printf("  host steal share of the window: %.4f\n", w0.steal_fraction);
  for (const auto& [name, t] : self) {
    std::printf("  span %-24s count=%-8llu total_us=%-12.1f self_us=%.1f\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_us, t.self_us);
  }

  MetricMap declared;
  const MetricMap& source = args.trace ? layers : e2e;
  auto take = [&](const char* name) {
    auto it = source.find(name);
    if (it == source.end()) Die(std::string("metric not measured: ") + name);
    declared[name] = it->second;
  };
  if (args.trace) {
    for (const char* name : kPerLayer) take(name);
  } else {
    for (const char* name : kEndToEnd) take(name);
  }

  std::string self_json = "{";
  for (const auto& [name, t] : self) {
    if (self_json.size() > 1) self_json += ", ";
    self_json += JsonString(name) + ": {\"count\": " + std::to_string(t.count) +
                 ", \"total_us\": " + JsonNumber(t.total_us) +
                 ", \"self_us\": " + JsonNumber(t.self_us) + "}";
  }
  self_json += "}";
  std::ofstream detail(args.detail);
  detail << "{\"workload\": " << JsonString(args.workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"host\": {\"nproc\": " << nproc
         << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
         << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE) << "}"
         << ", \"correct\": true, \"attempted\": " << attempted
         << ", \"failed\": " << failed
         << ", \"end_to_end\": " << MetricsJson(e2e, true)
         << ", \"per_layer\": " << MetricsJson(layers, true)
         << ", \"spans\": " << self_json << ", \"slices\": {";
  bool first_series = true;
  for (const auto& [name, series] : o.slices) {
    detail << (first_series ? "" : ", ") << JsonString(name) << ": [";
    for (size_t i = 0; i < series.size(); ++i) {
      detail << (i ? ", " : "") << JsonNumber(series[i]);
    }
    detail << "]";
    first_series = false;
  }
  detail << "}, \"setup_rounds_s\": [";
  for (size_t i = 0; i < setup_rounds.size(); ++i) {
    detail << (i ? ", " : "") << JsonNumber(setup_rounds[i]);
  }
  detail << "], \"host_steal_fraction\": " << JsonNumber(w0.steal_fraction)
         << "}\n";
  if (!detail) Die("cannot write " + args.detail);
  detail.close();

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(declared, false).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  return perfbench::Run(args);
}
