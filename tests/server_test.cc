// The serving subsystem end to end, in process (so the ASan/TSan CI jobs see
// every thread): ServerSession semantics over a collecting sink, and
// SocketServer over real unix/TCP sockets — two concurrent clients sharing
// one engine, cross-client memo hits, cancel-by-id of still-queued work,
// malformed/oversized input, drain-on-disconnect, and the one-write-per-pass
// reply path with memo hits answered while the engine's worker is parked.
#include "src/server/socket_server.h"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/server/protocol.h"
#include "src/server/session.h"
#include "src/util/net.h"
#include "tests/parked_worker.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace server {
namespace {

// The engine_test heavy-traffic idiom: `**/item[title && note]` against this
// schema routes to the NP skeleton search (hundreds of microseconds each) —
// a head-of-line batch of them keeps a single worker busy while queued work
// is cancelled.
constexpr char kHeavyDtdText[] = R"(root catalog
catalog -> section*
section -> heading, item*, appendix
heading -> eps
item -> title, price, (variant + eps), note*
title -> eps
price -> eps
variant -> swatch, swatch*
swatch -> eps
note -> ref
ref -> eps
appendix -> note*
)";
constexpr char kHeavyQuery[] = "**/item[title && note]";

std::string WriteTempDtd(const std::string& name) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << kHeavyDtdText;
  EXPECT_TRUE(out.good());
  return path;
}

// Collects sink output; the engine emits from worker threads.
struct SinkLog {
  std::mutex mu;
  std::vector<std::string> lines;
  void operator()(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return lines;
  }
  bool Contains(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& l : lines) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

// --- ServerSession over a collecting sink (no sockets) -------------------

TEST(ServerSessionTest, FullCommandCycle) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_cycle.dtd");
  auto log = std::make_shared<SinkLog>();
  SessionOptions opt;
  ServerSession session(&engine, opt,
                        [log](const std::string& l) { (*log)(l); });

  EXPECT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  EXPECT_TRUE(log->Contains("ok dtd cat fp="));
  EXPECT_TRUE(session.HandleLine("query cat section/item"));
  EXPECT_TRUE(session.HandleLine("q cat nosuchlabel"));
  EXPECT_TRUE(session.HandleLine("flush"));
  EXPECT_TRUE(log->Contains("ok flush"));
  EXPECT_TRUE(log->Contains("[sat    ] section/item"));
  EXPECT_TRUE(log->Contains("[unsat  ] nosuchlabel"));
  EXPECT_TRUE(session.HandleLine("stats"));
  EXPECT_TRUE(log->Contains("stats {\"requests\": 2"));
  EXPECT_TRUE(session.HandleLine("drop cat"));
  EXPECT_TRUE(log->Contains("ok drop cat"));
  // Errors keep the session alive...
  EXPECT_TRUE(session.HandleLine("query cat section"));
  EXPECT_TRUE(log->Contains("err unknown-dtd 'cat'"));
  EXPECT_TRUE(session.HandleLine("drop cat"));
  EXPECT_TRUE(session.HandleLine("bogus"));
  EXPECT_TRUE(log->Contains("err unknown-verb 'bogus'"));
  EXPECT_TRUE(session.HandleLine("cancel 424242"));
  EXPECT_TRUE(log->Contains("err unknown-ticket 424242"));
  // ...and quit ends it.
  EXPECT_FALSE(session.HandleLine("quit"));
  EXPECT_TRUE(log->Contains("ok quit"));
  EXPECT_FALSE(session.HandleLine("stats"));
  EXPECT_EQ(session.queries_submitted(), 2u);
}

TEST(ServerSessionTest, QueryAckPrecedesItsResultLine) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_ack.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.Drain();
  std::vector<std::string> lines = log->snapshot();
  int ack_at = -1, result_at = -1;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("ok query ", 0) == 0) ack_at = static_cast<int>(i);
    if (lines[i].find("[sat    ] section") != std::string::npos) {
      result_at = static_cast<int>(i);
    }
  }
  ASSERT_GE(ack_at, 0);
  ASSERT_GE(result_at, 0);
  EXPECT_LT(ack_at, result_at);
}

TEST(ServerSessionTest, CancelStillQueuedTicketById) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;  // heavy head-of-line blocks the only worker
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("session_cancel.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  // A tail request submitted behind 40 NP head-of-line searches is still
  // queued when the cancel lands — unless the scheduler stalls this thread
  // at exactly the wrong moment under full-suite load, so retry with a
  // fresh batch instead of trusting one timing window.
  uint64_t cancelled_id = 0;
  for (int attempt = 0; attempt < 5 && cancelled_id == 0; ++attempt) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          session.HandleLine(std::string("query cat ") + kHeavyQuery));
    }
    ASSERT_TRUE(session.HandleLine("query cat section/item"));
    uint64_t tail_id = 0;
    for (const std::string& l : log->snapshot()) {
      if (l.rfind("ok query ", 0) == 0) {
        tail_id = std::stoull(l.substr(9));  // last ack wins
      }
    }
    ASSERT_GT(tail_id, 0u);
    ASSERT_TRUE(session.HandleLine("cancel " + std::to_string(tail_id)));
    if (log->Contains("ok cancel " + std::to_string(tail_id))) {
      cancelled_id = tail_id;
    }
  }
  ASSERT_GT(cancelled_id, 0u) << "cancel never won in 5 attempts";
  // Cancelled tickets still resolve: their result line is pipelined with
  // algorithm "cancelled".
  EXPECT_TRUE(log->Contains(std::to_string(cancelled_id) +
                            " [unknown] section/item -- cancelled"));
  // Second cancel of the same id: the ticket already completed.
  ASSERT_TRUE(session.HandleLine("cancel " + std::to_string(cancelled_id)));
  EXPECT_TRUE(log->Contains("err unknown-ticket"));
  session.HandleLine("flush");
  EXPECT_EQ(engine.stats().cancellations, 1u);
}

TEST(ServerSessionTest, HelloGrantsOnlyTransportSupportedFeatures) {
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  EXPECT_TRUE(session.HandleLine("hello"));
  EXPECT_TRUE(log->Contains("ok hello"));
  // `binary` is still a valid request (older clients send it) and is always
  // declined: it is simply missing from the reply.
  EXPECT_TRUE(session.HandleLine("hello batch binary"));
  EXPECT_EQ(log->snapshot().back(), "ok hello batch");
  EXPECT_TRUE(session.HandleLine("hello binary batch"));
  EXPECT_EQ(log->snapshot().back(), "ok hello batch");
  EXPECT_TRUE(session.HandleLine("hello binary"));
  EXPECT_EQ(log->snapshot().back(), "ok hello");
}

TEST(ServerSessionTest, BatchWithoutGrantIsRefusedAndSessionSurvives) {
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  EXPECT_TRUE(session.HandleLine("batch 2"));
  EXPECT_TRUE(log->Contains("err batch-mismatch batch framing not "
                            "negotiated; send `hello batch` first"));
  // Not a one-strike offense post-auth: the session keeps serving, and the
  // would-be members parse as ordinary commands.
  EXPECT_TRUE(session.HandleLine("stats"));
  EXPECT_TRUE(log->Contains("stats {"));
}

TEST(ServerSessionTest, BatchSubmitsAllMembersUnderOneBarrier) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_batch.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  ASSERT_TRUE(session.HandleLine("batch 3"));
  // Members are collected, not dispatched: no ack until the Nth line.
  ASSERT_TRUE(session.HandleLine("query cat section/item"));
  ASSERT_TRUE(session.HandleLine("# a comment inside the batch"));
  ASSERT_TRUE(session.HandleLine(""));  // blank lines don't count either
  EXPECT_FALSE(log->Contains("ok batch"));
  ASSERT_TRUE(session.HandleLine("q cat nosuchlabel"));
  ASSERT_TRUE(session.HandleLine("query cat **/note"));
  session.Drain();
  EXPECT_TRUE(log->Contains("ok batch 1 ids 1 2 3"));
  EXPECT_TRUE(log->Contains("[sat    ] section/item"));
  EXPECT_TRUE(log->Contains("[unsat  ] nosuchlabel"));
  EXPECT_TRUE(log->Contains("ok batch 1 done"));
  EXPECT_EQ(session.queries_submitted(), 3u);
  // The barrier comes after every member's result line — and after Drain
  // returns, it has been emitted (no done line leaking past teardown).
  std::vector<std::string> lines = log->snapshot();
  size_t done_at = 0, last_result_at = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == "ok batch 1 done") done_at = i;
    if (lines[i].find("] ") != std::string::npos &&
        std::isdigit(static_cast<unsigned char>(lines[i][0]))) {
      last_result_at = i;
    }
  }
  EXPECT_GT(done_at, last_result_at);
  // A second batch gets the next seq.
  ASSERT_TRUE(session.HandleLine("batch 1"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.Drain();
  EXPECT_TRUE(log->Contains("ok batch 2 ids 4"));
  EXPECT_TRUE(log->Contains("ok batch 2 done"));
}

TEST(ServerSessionTest, PoisonedBatchDispatchesNothing) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_poison.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));

  // A malformed member line.
  ASSERT_TRUE(session.HandleLine("batch 2"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  ASSERT_TRUE(session.HandleLine("frobnicate"));
  EXPECT_TRUE(log->Contains("err batch-mismatch batch 1: member 2 is "
                            "malformed"));
  EXPECT_TRUE(log->Contains("batch discarded, nothing was submitted"));

  // A non-query verb as a member.
  ASSERT_TRUE(session.HandleLine("batch 2"));
  ASSERT_TRUE(session.HandleLine("stats"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  EXPECT_TRUE(log->Contains("member 1 is 'stats'; only query/q may appear"));

  // An unknown schema, caught at dispatch validation — before ANY submit,
  // so a half-good batch still submits nothing.
  ASSERT_TRUE(session.HandleLine("batch 2"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  ASSERT_TRUE(session.HandleLine("query nosuch section"));
  EXPECT_TRUE(log->Contains("member 2: unknown dtd 'nosuch'"));

  EXPECT_EQ(session.queries_submitted(), 0u);
  EXPECT_EQ(engine.stats().requests, 0u);
  EXPECT_FALSE(log->Contains("ok batch"));
  // The session itself survives every refused batch.
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.Drain();
  EXPECT_TRUE(log->Contains("[sat    ] section"));
}

TEST(ServerSessionTest, BatchInterruptedByEofDispatchesNothing) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_batch_eof.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  ASSERT_TRUE(session.HandleLine("batch 3"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.OnInputClosed();
  EXPECT_TRUE(log->Contains(
      "err batch-mismatch batch 1: input ended after 1 of 3 members; "
      "nothing was submitted"));
  EXPECT_EQ(session.queries_submitted(), 0u);
  session.OnInputClosed();  // idempotent: one error line total
  std::vector<std::string> lines = log->snapshot();
  int mismatches = 0;
  for (const std::string& l : lines) {
    if (l.find("err batch-mismatch") != std::string::npos) ++mismatches;
  }
  EXPECT_EQ(mismatches, 1);
}

TEST(ServerSessionTest, BatchLargerThanInflightCapIsRefusedUpFront) {
  // A batch submits all members before any completion callback can free a
  // slot, so a batch wider than the cap could never make progress — it is
  // refused at `batch N` time instead of deadlocking the reader.
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  SessionOptions opt;
  opt.max_inflight = 4;
  ServerSession session(&engine, opt,
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("batch 5"));
  EXPECT_TRUE(
      log->Contains("err batch-mismatch batch 5 exceeds this session's "
                    "in-flight cap (4)"));
  // No member collection started: the next line is an ordinary command.
  ASSERT_TRUE(session.HandleLine("stats"));
  EXPECT_TRUE(log->Contains("stats {"));
}

TEST(ServerSessionTest, NulLeadingLineIsUnknownVerbAndSessionSurvives) {
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  // The bytes an old binary-frame client sends before (or without) `hello
  // binary`: an ordinary malformed line, not a reason to close.
  EXPECT_TRUE(session.HandleLine(std::string("\0\0\0\0\x05stats", 10)));
  EXPECT_EQ(log->snapshot().back().rfind("err unknown-verb", 0), 0u)
      << log->snapshot().back();
  EXPECT_TRUE(session.HandleLine("stats"));
  EXPECT_EQ(log->snapshot().back().rfind("stats {", 0), 0u)
      << log->snapshot().back();
}

TEST(ServerSessionTest, MetricsPromForwardsExpositionVerbatim) {
  // The session forwards the renderer's exposition line for line, blank
  // lines included (the prom splitter once dropped them): its lines equal
  // obs::RenderMetricsProm over the same engine, once the two fields that
  // change between renders (uptime_ms, snapshot_seq) are masked.
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_prom.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  ASSERT_TRUE(session.HandleLine("flush"));
  ASSERT_TRUE(session.HandleLine("query cat section"));  // a memo hit
  ASSERT_TRUE(session.HandleLine("query cat A[["));      // a parse error
  ASSERT_TRUE(session.HandleLine("flush"));
  const size_t before = log->snapshot().size();
  ASSERT_TRUE(session.HandleLine("metrics prom"));
  std::vector<std::string> got = log->snapshot();
  got.erase(got.begin(), got.begin() + static_cast<std::ptrdiff_t>(before));

  const std::string text =
      obs::RenderMetricsProm(MetricsInput(engine, nullptr));
  std::vector<std::string> want;
  for (size_t start = 0; start < text.size();) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    want.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  auto mask = [](std::vector<std::string>* lines) {
    for (std::string& l : *lines) {
      for (const char* name : {"xpathsat_uptime_ms ",
                               "xpathsat_snapshot_seq "}) {
        if (l.rfind(name, 0) == 0) l = name;
      }
    }
  };
  mask(&got);
  mask(&want);
  EXPECT_EQ(got, want);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), "# EOF");
  EXPECT_NE(std::find(got.begin(), got.end(), "xpathsat_requests 3"),
            got.end());
}

// --- SocketServer over real sockets --------------------------------------

// Minimal line-protocol client for the tests: blocking reads with
// wait-until-predicate helpers over the accumulated reply lines.
class TestClient {
 public:
  explicit TestClient(net::ScopedFd fd) : fd_(std::move(fd)) {
    reader_ = std::thread([this] {
      net::LineReader reader(fd_.get(), protocol::kMaxLineBytes);
      std::string line, error;
      for (;;) {
        net::LineReader::Event ev = reader.ReadLine(&line, &error);
        if (ev == net::LineReader::Event::kEof ||
            ev == net::LineReader::Event::kError) {
          break;
        }
        if (ev != net::LineReader::Event::kLine) continue;
        std::lock_guard<std::mutex> lock(mu_);
        lines_.push_back(line);
        cv_.notify_all();
      }
      std::lock_guard<std::mutex> lock(mu_);
      eof_ = true;
      cv_.notify_all();
    });
  }
  ~TestClient() {
    // shutdown (not close) wakes the reader if it is blocked in read(2).
    ::shutdown(fd_.get(), SHUT_RDWR);
    if (reader_.joinable()) reader_.join();
  }

  void Send(const std::string& line) {
    Status s = net::WriteAll(fd_.get(), line + "\n");
    ASSERT_TRUE(s.ok()) << s.message();
  }

  /// Writes raw bytes with no newline appended (unterminated-tail tests).
  void SendBytes(const std::string& bytes) {
    Status s = net::WriteAll(fd_.get(), bytes);
    ASSERT_TRUE(s.ok()) << s.message();
  }

  /// Half-closes the write side: the server sees EOF while this client can
  /// still read its final replies.
  void ShutdownWrites() { ::shutdown(fd_.get(), SHUT_WR); }

  /// Send for connections the server may already have closed (reject /
  /// throttle races): EPIPE is expected there, not a test failure.
  void TrySend(const std::string& line) {
    (void)net::WriteAll(fd_.get(), line + "\n");
  }

  /// Blocks until some reply line (at or after the consume cursor) contains
  /// one of `needles`; returns that line and advances the cursor past it.
  /// Fails the test (and returns empty) after `timeout_ms` or on EOF
  /// without a match.
  std::string WaitForAny(const std::vector<std::string>& needles,
                         int64_t timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    std::string found;
    bool ok = cv_.wait_for(
        lock, std::chrono::milliseconds(timeout_ms), [&] {
          for (size_t i = scanned_; i < lines_.size(); ++i) {
            for (const std::string& needle : needles) {
              if (lines_[i].find(needle) != std::string::npos) {
                found = lines_[i];
                scanned_ = i + 1;
                return true;
              }
            }
          }
          scanned_ = lines_.size();
          return eof_;
        });
    EXPECT_TRUE(ok && !found.empty())
        << "no reply containing '" << needles[0] << "' (got "
        << lines_.size() << " lines, eof=" << eof_ << ")";
    return found;
  }

  std::string WaitFor(const std::string& needle, int64_t timeout_ms = 30000) {
    return WaitForAny({needle}, timeout_ms);
  }

  /// Blocks until every needle is contained in a distinct reply line at or
  /// after the consume cursor, in any arrival order — the wait for
  /// pipelined results, which complete out of submission order. Advances
  /// the cursor past the last matched line. Fails the test after
  /// `timeout_ms` or on EOF without a match for every needle.
  void WaitForAll(const std::vector<std::string>& needles,
                  int64_t timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<bool> found;
    size_t end = scanned_;
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      found.assign(needles.size(), false);
      std::vector<bool> used(lines_.size(), false);
      end = scanned_;
      for (size_t n = 0; n < needles.size(); ++n) {
        for (size_t i = scanned_; i < lines_.size() && !found[n]; ++i) {
          if (!used[i] && lines_[i].find(needles[n]) != std::string::npos) {
            used[i] = true;
            found[n] = true;
            end = std::max(end, i + 1);
          }
        }
      }
      return std::find(found.begin(), found.end(), false) == found.end() ||
             eof_;
    });
    for (size_t n = 0; n < needles.size(); ++n) {
      EXPECT_TRUE(found[n]) << "no reply containing '" << needles[n]
                            << "' (got " << lines_.size()
                            << " lines, eof=" << eof_ << ")";
    }
    scanned_ = end;
  }

  /// Scans ALL received lines (ignoring the consume cursor).
  bool SawLine(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& l : lines_) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  void WaitForEof(int64_t timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    EXPECT_TRUE(cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return eof_; }));
  }

  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  net::ScopedFd fd_;
  std::thread reader_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  size_t scanned_ = 0;
  bool eof_ = false;
};

// Short, collision-free unix socket path (sockaddr_un caps ~107 bytes, so
// TempDir-based paths are risky; cwd-relative is safe under CTest).
std::string SocketPath(const char* tag) {
  return std::string("srvtest_") + tag + "_" + std::to_string(getpid()) +
         ".sock";
}

TEST(SocketServerTest, TwoConcurrentClientsShareOneEngineAndItsMemo) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_multi.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("multi");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> queries = {
      "section/item", "**/note", "section/heading", "**/item[title]",
      "nosuchlabel"};
  // Phase 1: two clients connected at once, interleaving batches against
  // their own DTD namespaces (one shared engine underneath).
  auto run_client = [&](const char* name) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send(std::string("dtd ") + name + " " + dtd_path);
    client.WaitFor("ok dtd");
    for (int round = 0; round < 3; ++round) {
      for (const std::string& q : queries) {
        client.Send(std::string("query ") + name + " " + q);
      }
      client.Send("flush");
      client.WaitFor("ok flush");
    }
    client.Send("quit");
    client.WaitFor("ok quit");
    client.WaitForEof();
    // Every query got its result line.
    int results = 0;
    for (const std::string& l : client.lines()) {
      if (l.find(" -- ") != std::string::npos) ++results;
    }
    EXPECT_EQ(results, static_cast<int>(queries.size()) * 3);
  };
  std::thread a(run_client, "alpha");
  std::thread b(run_client, "beta");
  a.join();
  b.join();

  // Phase 2 (deterministic cross-client check): a THIRD client replays the
  // same queries and must be answered entirely from the memo the first two
  // primed — same schema file, same engine, different connection.
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient replay(std::move(fd).value());
  replay.Send("dtd gamma " + dtd_path);
  replay.WaitFor("ok dtd");
  for (const std::string& q : queries) replay.Send("query gamma " + q);
  replay.Send("flush");
  replay.WaitFor("ok flush");
  int memo_results = 0;
  for (const std::string& l : replay.lines()) {
    if (l.find(" -- ") != std::string::npos) {
      EXPECT_NE(l.find(" memo"), std::string::npos) << l;
      ++memo_results;
    }
  }
  EXPECT_EQ(memo_results, static_cast<int>(queries.size()));
  // The shared stats confirm it: cross-client memo hits and one compiled
  // schema serving all three registrations.
  replay.Send("stats");
  std::string stats = replay.WaitFor("stats {");
  EXPECT_NE(stats.find("\"dtd_cache_hits\": 2"), std::string::npos) << stats;
  SatEngineStats s = engine.stats();
  EXPECT_GE(s.memo_hits, queries.size());
  EXPECT_EQ(s.dtd_cache_misses, 1u);
  EXPECT_EQ(server.connections_accepted(), 3u);

  server.Stop();
}

TEST(SocketServerTest, CrossClientRewriteCacheReuseWithMemoDisabled) {
  // With the verdict memo off, every request walks the miss path — so the
  // second client's filter traffic must be served its Prop 3.3 rewrites
  // from the cache the FIRST client populated (cross-client rewrite reuse),
  // and the stats line must surface the new counters.
  SatEngineOptions eopt;
  eopt.num_threads = 2;
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_rewrite.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("rewrite");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  // kHeavyQuery is a positive filter query: it routes to the Thm 4.4
  // skeleton search, whose first step is the f(p) rewrite.
  auto run_client = [&](const char* name, int repeats) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send(std::string("dtd ") + name + " " + dtd_path);
    client.WaitFor("ok dtd");
    for (int i = 0; i < repeats; ++i) {
      client.Send(std::string("query ") + name + " " + kHeavyQuery);
      // Flush between requests: concurrent first-misses would both compute
      // the rewrite (benign race, but it would blur the exact miss count
      // asserted below).
      client.Send("flush");
      client.WaitFor("ok flush");
    }
    client.Send("quit");
    client.WaitFor("ok quit");
  };
  run_client("alpha", 2);  // primes the rewrite cache (first request misses)
  SatEngineStats primed = engine.stats();
  EXPECT_GE(primed.rewrite_cache_hits, 1u);  // alpha's own repeat already hits
  run_client("beta", 3);   // a different connection, same (query, DTD) pair

  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, 0u);  // memo really off
  EXPECT_EQ(stats.rewrite_cache_misses, 1u);  // one rewrite, ever
  EXPECT_GE(stats.rewrite_cache_hits, primed.rewrite_cache_hits + 3);

  // The wire stats line carries the counters for scripted clients.
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient probe(std::move(fd).value());
  probe.Send("stats");
  std::string line = probe.WaitFor("stats {");
  EXPECT_NE(line.find("\"rewrite_cache_hits\": "), std::string::npos) << line;
  EXPECT_NE(line.find("\"rewrite_cache_misses\": 1"), std::string::npos)
      << line;
  probe.Send("quit");
  probe.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, CancelByIdAcrossTheSocket) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_cancel.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("cancel");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd");
  // Ticket ids are engine-global and this engine is fresh, so attempt k
  // (1-based) submits ids (k-1)*41+1 .. k*41; the tail is k*41. The tail
  // sits queued behind 40 NP searches on one worker — cancellable unless
  // full-suite load stalls this thread at the wrong instant, hence the
  // retry loop instead of one timing window.
  uint64_t cancelled_id = 0;
  for (int attempt = 1; attempt <= 5 && cancelled_id == 0; ++attempt) {
    for (int i = 0; i < 40; ++i) {
      client.Send(std::string("query cat ") + kHeavyQuery);
    }
    client.Send("query cat section/item");
    const uint64_t tail_id = static_cast<uint64_t>(attempt) * 41;
    client.WaitFor("ok query " + std::to_string(tail_id));
    client.Send("cancel " + std::to_string(tail_id));
    std::string reply = client.WaitForAny(
        {"ok cancel " + std::to_string(tail_id),
         "err not-cancellable " + std::to_string(tail_id),
         "err unknown-ticket " + std::to_string(tail_id)});
    if (reply.rfind("ok cancel", 0) == 0) cancelled_id = tail_id;
  }
  ASSERT_GT(cancelled_id, 0u) << "cancel never won in 5 attempts";
  // TryCancel fulfils the ticket synchronously, so the pipelined result
  // line (algorithm "cancelled") was emitted just before the `ok cancel`
  // ack the loop consumed.
  EXPECT_TRUE(client.SawLine(std::to_string(cancelled_id) +
                             " [unknown] section/item -- cancelled"));
  client.Send("quit");
  client.WaitFor("ok quit");
  EXPECT_EQ(engine.stats().cancellations, 1u);
  server.Stop();
}

TEST(SocketServerTest, MalformedAndOversizedLinesAnswerErrAndKeepGoing) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_err.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("err");
  opt.max_line_bytes = 1024;  // small cap so the test stays cheap
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("frobnicate everything");
  client.WaitFor("err unknown-verb 'frobnicate'");
  client.Send("query");
  client.WaitFor("err bad-args query");
  client.Send("query cat " + std::string(4096, 'x'));
  client.WaitFor("err oversized-line");
  // Also when the whole oversized line (and its newline) lands in ONE read
  // chunk — the cap must hold whether or not the reader ever saw the
  // buffer grow past it incrementally.
  client.Send("query cat " + std::string(2000, 'y'));
  client.WaitFor("err oversized-line");
  // The connection survives all of it.
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd cat");
  client.Send("query cat section");
  client.WaitFor("[sat    ] section");
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, BatchFramingAcrossTheSocket) {
  SatEngineOptions eopt;
  eopt.slow_request_ns = 1;  // every request traces: the JSON shape is the
                             // assertion, not actual slowness
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_batch.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("batch");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("hello batch binary");
  // Binary framing does not exist: only batch is granted.
  EXPECT_EQ(client.WaitFor("ok hello"), "ok hello batch");
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd cat");
  // The whole batch in one write — the bulk-client shape.
  client.Send("batch 2\nquery cat section/item\nq cat nosuchlabel");
  client.WaitFor("ok batch 1 ids");
  // Member results complete in either order; the barrier follows both.
  client.WaitForAll({"[sat    ] section/item", "[unsat  ] nosuchlabel",
                     "ok batch 1 done"});
  client.Send("slow");
  std::string slow = client.WaitFor("slow {");
  for (const char* field : {"\"route\": ", "\"queue_ns\": ", "\"parse_ns\": ",
                            "\"rewrite_ns\": ", "\"decide_ns\": ",
                            "\"total_ns\": "}) {
    EXPECT_NE(slow.find(field), std::string::npos) << field << " in " << slow;
  }
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, NulLeadingLineIsAnOrdinaryUnknownVerb) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("nul");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  // What an old binary-frame client would put on the wire: a 0x00 byte, a
  // length header and a payload. It is one text line like any other.
  client.Send(std::string("\0\0\0\0\x05stats", 10));
  client.WaitFor("err unknown-verb");
  // The session keeps serving the next line.
  client.Send("stats");
  client.WaitFor("stats {");
  client.Send("quit");
  client.WaitFor("ok quit");
  client.WaitForEof();
  server.Stop();
}

TEST(SocketServerTest, OldFrameBytesAnswerErrAndNeverHang) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("oldframe");
  opt.max_line_bytes = 1024;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  {
    // A 0x00 byte and a 4 GiB length header: the line cap bounds the
    // buffering, the line is refused, and the connection keeps serving.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("hello binary");
    EXPECT_EQ(client.WaitFor("ok hello"), "ok hello");
    client.Send(std::string("\0\xff\xff\xff\xff", 5) +
                std::string(2000, 'x'));
    client.WaitFor("err oversized-line");
    client.Send("stats");
    client.WaitFor("stats {");
    client.Send("quit");
    client.WaitFor("ok quit");
    client.WaitForEof();
  }
  {
    // Old frame bytes cut off by EOF — mid-header and mid-payload both:
    // the tail is an unterminated line that answers a structured error,
    // and the session tears down instead of waiting for more bytes.
    const std::string bytes = std::string("\0\0\0\0\x05stats", 10);
    for (size_t keep : {1u, 3u, 7u}) {
      Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
      ASSERT_TRUE(fd.ok()) << fd.error();
      TestClient client(std::move(fd).value());
      client.Send("hello binary");
      EXPECT_EQ(client.WaitFor("ok hello"), "ok hello");
      client.SendBytes(bytes.substr(0, keep));
      client.ShutdownWrites();
      client.WaitFor("err unknown-verb");
      client.WaitForEof();
    }
  }
  server.Stop();
}

TEST(SocketServerTest, BatchInterruptedByEofAnswersBatchMismatch) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_batch_eof.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("batcheof");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("hello batch");
  client.WaitFor("ok hello batch");
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd cat");
  client.Send("batch 3");
  client.Send("query cat section");
  client.ShutdownWrites();
  client.WaitFor("err batch-mismatch batch 1: input ended after 1 of 3");
  client.WaitForEof();
  server.Stop();
  EXPECT_EQ(engine.stats().requests, 0u);
}

TEST(SocketServerTest, TcpListenerOnEphemeralPort) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_tcp.dtd");
  SocketServerOptions opt;
  opt.tcp_port = 0;  // ephemeral
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  Result<net::ScopedFd> fd = net::ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd");
  client.Send("query cat **/note");
  client.WaitFor("[sat    ] **/note");
  client.Send("quit");
  client.WaitFor("ok quit");
  client.WaitForEof();
  server.Stop();
}

TEST(SocketServerTest, AbruptDisconnectDrainsInFlightWork) {
  // A client that vanishes mid-batch must not wedge or crash the server:
  // its session drains against a dead socket and the engine finishes the
  // work. (ASan/TSan turn lifetime mistakes here into hard failures.)
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_abrupt.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("abrupt");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("dtd cat " + dtd_path);
    client.WaitFor("ok dtd");
    for (int i = 0; i < 20; ++i) {
      client.Send(std::string("query cat ") + kHeavyQuery);
    }
    // ~TestClient closes the socket with the batch still in flight.
  }
  // Stop() joins the connection thread, which waits for the session drain:
  // returning at all is the assertion.
  server.Stop();
  EXPECT_EQ(engine.stats().requests, 20u);
}

// --- One write per worker pass ----------------------------------------------
//
// These run with the engine's single worker parked (tests/parked_worker.h):
// a memo hit is answered on the submitting thread and still completes,
// while a miss waits for the worker.

// Where each ticket's ack and result line, and each batch's done line, sit
// in a reply stream.
struct WireOrder {
  std::map<uint64_t, size_t> ack_at;
  std::map<uint64_t, size_t> result_at;
  std::map<uint64_t, size_t> batch_done_at;
  std::map<uint64_t, std::vector<uint64_t>> batch_members;

  explicit WireOrder(const std::vector<std::string>& lines, size_t from = 0) {
    for (size_t i = from; i < lines.size(); ++i) {
      const std::string& l = lines[i];
      if (l.rfind("ok query ", 0) == 0) {
        ack_at[std::stoull(l.substr(9))] = i;
      } else if (l.rfind("ok batch ", 0) == 0) {
        const uint64_t seq = std::stoull(l.substr(9));
        const size_t ids = l.find(" ids ");
        if (ids != std::string::npos) {
          std::istringstream in(l.substr(ids + 5));
          for (uint64_t id; in >> id;) {
            ack_at[id] = i;
            batch_members[seq].push_back(id);
          }
        } else if (l.find(" done") != std::string::npos) {
          batch_done_at[seq] = i;
        }
      } else if (!l.empty() &&
                 std::isdigit(static_cast<unsigned char>(l[0])) &&
                 l.find(" [") != std::string::npos) {
        result_at[std::stoull(l)] = i;
      }
    }
  }

  // Every result follows its own ack; every ack has its result.
  void ExpectEachResultFollowsItsAck() const {
    for (const auto& [id, at] : result_at) {
      auto ack = ack_at.find(id);
      ASSERT_NE(ack, ack_at.end()) << "result for unacked ticket " << id;
      EXPECT_LT(ack->second, at) << "ticket " << id << " result before ack";
    }
    for (const auto& [id, at] : ack_at) {
      EXPECT_EQ(result_at.count(id), 1u) << "no result for ticket " << id;
    }
  }
};

// Registers the heavy schema as `cat`, grants batch framing, and lands
// `warm` in the memo.
void PrimeSession(TestClient* client, const std::string& dtd_path,
                  const std::vector<std::string>& warm) {
  client->Send("hello batch");
  client->WaitFor("ok hello batch");
  client->Send("dtd cat " + dtd_path);
  client->WaitFor("ok dtd cat");
  for (const std::string& q : warm) client->Send("query cat " + q);
  client->Send("flush");
  client->WaitFor("ok flush");
}

TEST(SocketServerTest, WarmQueriesInOneWriteAreAnsweredWithoutAWorker) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_inline.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("inline");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  PrimeSession(&client, dtd_path, {"section/item"});
  const size_t from = client.lines().size();

  ParkedWorker parked(&engine);
  std::string burst;
  for (int i = 0; i < 16; ++i) burst += "query cat section/item\n";
  client.SendBytes(burst);
  client.WaitForAll(std::vector<std::string>(16, "[sat    ] section/item"));
  const WireOrder order(client.lines(), from);
  EXPECT_EQ(order.ack_at.size(), 16u);
  EXPECT_EQ(order.result_at.size(), 16u);
  order.ExpectEachResultFollowsItsAck();
  EXPECT_EQ(engine.stats().memo_hits, 16u);

  parked.Release();
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, PassMixingQueuedMissesAndInlineHitsKeepsOrder) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_mixed.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("mixed");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  PrimeSession(&client, dtd_path, {"section/item", "section/heading"});
  const size_t from = client.lines().size();

  ParkedWorker parked(&engine);
  client.SendBytes(
      "query cat section/item\n"
      "query cat **/note\n"
      "batch 4\n"
      "query cat section/heading\n"
      "query cat **/item[title]\n"
      "query cat section/item\n"
      "query cat nosuchlabel\n"
      "query cat section/heading\n");
  // The four hits resolve while the worker is parked; the three misses
  // cannot, and neither can the batch barrier.
  client.WaitForAll({"[sat    ] section/item", "[sat    ] section/heading",
                     "[sat    ] section/item", "[sat    ] section/heading"});
  EXPECT_FALSE(client.SawLine("**/note --"));
  EXPECT_FALSE(client.SawLine("ok batch 1 done"));

  parked.Release();
  client.WaitForAll({"[sat    ] **/note", "[sat    ] **/item[title]",
                     "[unsat  ] nosuchlabel", "ok batch 1 done"});
  const WireOrder order(client.lines(), from);
  EXPECT_EQ(order.ack_at.size(), 7u);
  EXPECT_EQ(order.result_at.size(), 7u);
  order.ExpectEachResultFollowsItsAck();
  ASSERT_EQ(order.batch_members.count(1), 1u);
  ASSERT_EQ(order.batch_done_at.count(1), 1u);
  for (uint64_t id : order.batch_members.at(1)) {
    ASSERT_EQ(order.result_at.count(id), 1u);
    EXPECT_LT(order.result_at.at(id), order.batch_done_at.at(1))
        << "batch done before member " << id;
  }

  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, PassWithMoreThan64KiBOfRepliesArrivesComplete) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_big.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("big");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  PrimeSession(&client, dtd_path, {"section/item"});
  // One Prometheus exposition per `metrics prom`: short requests with long
  // replies, so a pass of a few hundred input bytes answers far more than
  // the 64 KiB flush threshold.
  client.Send("metrics prom");
  client.WaitFor("# EOF");
  const size_t exposition_bytes = [&] {
    size_t bytes = 0;
    for (const std::string& l : client.lines()) bytes += l.size() + 1;
    return bytes;
  }();
  ASSERT_GT(exposition_bytes, 0u);
  const int requests = static_cast<int>(2 * 64 * 1024 / exposition_bytes) + 2;
  const size_t from = client.lines().size();

  ParkedWorker parked(&engine);
  std::string burst;
  for (int i = 0; i < requests; ++i) {
    burst += "query cat section/item\nmetrics prom\n";
  }
  client.SendBytes(burst + "stats\n");
  client.WaitFor("stats {");
  const std::vector<std::string> lines = client.lines();
  size_t eofs = 0;
  size_t bytes = 0;
  for (size_t i = from; i < lines.size(); ++i) {
    bytes += lines[i].size() + 1;
    if (lines[i] == "# EOF") ++eofs;
  }
  EXPECT_EQ(eofs, static_cast<size_t>(requests));
  EXPECT_GT(bytes, static_cast<size_t>(64 * 1024));
  const WireOrder order(lines, from);
  EXPECT_EQ(order.ack_at.size(), static_cast<size_t>(requests));
  EXPECT_EQ(order.result_at.size(), static_cast<size_t>(requests));
  order.ExpectEachResultFollowsItsAck();

  parked.Release();
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, SessionWritesHeldBackRepliesBeforeItBlocks) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_cap1.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("cap1");
  opt.session.max_inflight = 1;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  PrimeSession(&client, dtd_path, {});
  size_t from = client.lines().size();
  auto saw_since_from = [&](const std::string& needle) {
    const std::vector<std::string> lines = client.lines();
    for (size_t i = from; i < lines.size(); ++i) {
      if (lines[i].find(needle) != std::string::npos) return true;
    }
    return false;
  };

  {
    // Two misses in one pass: the second blocks in the in-flight cap wait
    // until the (parked) worker decides the first. The first ack must
    // already be on the wire.
    ParkedWorker parked(&engine);
    client.SendBytes("query cat section/item\nquery cat **/note\n");
    const std::string ack = client.WaitFor("ok query ");
    EXPECT_FALSE(saw_since_from("[sat    ] section/item"));
    parked.Release();
    client.WaitForAll({"[sat    ] section/item", "ok query ",
                       "[sat    ] **/note"});
    const std::vector<std::string> lines = client.lines();
    const WireOrder order(lines, from);
    ASSERT_EQ(order.ack_at.size(), 2u);
    order.ExpectEachResultFollowsItsAck();
    // With one slot, the second ticket is acked only after the first result.
    const uint64_t first = order.ack_at.begin()->first;
    const uint64_t second = std::next(order.ack_at.begin())->first;
    EXPECT_EQ(lines[order.ack_at.at(first)], ack);
    EXPECT_LT(order.result_at.at(first), order.ack_at.at(second));
    from = lines.size();
  }
  {
    // Same for Drain: `flush` waits for the parked miss, and the miss's ack
    // is written before it does.
    ParkedWorker parked(&engine);
    client.SendBytes("query cat section/heading\nflush\n");
    client.WaitFor("ok query ");
    EXPECT_FALSE(saw_since_from("ok flush"));
    parked.Release();
    client.WaitForAll({"[sat    ] section/heading", "ok flush"});
    WireOrder(client.lines(), from).ExpectEachResultFollowsItsAck();
  }

  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

// --- Production hardening: auth, health, caps, throttle, lifecycles ------

TEST(SocketServerTest, AuthGateAcrossTheSocket) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_auth.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("auth");
  opt.auth_secret = "open sesame";  // spaces allowed: arg is the remainder
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  {
    // Any verb before auth: one structured error, then the session ends.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("stats");
    client.WaitFor("err auth-required stats");
    client.WaitForEof();
  }
  {
    // Wrong secret: err bad-auth, then the session ends.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("auth wrong");
    client.WaitFor("err bad-auth");
    client.WaitForEof();
  }
  {
    // Malformed input before auth is also one-strike.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("no-such-verb");
    client.WaitFor("err unknown-verb");
    client.WaitForEof();
  }
  {
    // The right secret unlocks the full protocol.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("auth open sesame");
    client.WaitFor("ok auth");
    client.Send("dtd cat " + dtd_path);
    client.WaitFor("ok dtd cat");
    client.Send("query cat section");
    client.WaitFor("[sat    ] section");
    client.Send("quit");
    client.WaitFor("ok quit");
  }
  server.Stop();
}

TEST(SocketServerTest, HealthIsUnauthenticatedButRedactedBeforeAuth) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("health");
  opt.auth_secret = "s3cret";
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  // No auth line sent: health must still answer (load-balancer probes) —
  // but only liveness. The merged engine/connection counters are for
  // authenticated clients; a probe port must not leak workload telemetry.
  client.Send("health");
  std::string first = client.WaitFor("health {");
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"uptime_ms\":"), std::string::npos) << first;
  EXPECT_EQ(first.find("connections_active"), std::string::npos) << first;
  EXPECT_EQ(first.find("\"engine\""), std::string::npos) << first;
  EXPECT_EQ(first.find("requests"), std::string::npos) << first;
  // The session stays open for more probes.
  client.Send("health");
  client.WaitFor("health {");
  client.Send("auth s3cret");
  client.WaitFor("ok auth");
  // Post-auth the same verb serves the full merged object again.
  client.Send("health");
  std::string full = client.WaitFor("health {");
  EXPECT_NE(full.find("\"connections_active\": 1"), std::string::npos)
      << full;
  EXPECT_NE(full.find("\"engine\": {"), std::string::npos) << full;
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

// The number after `"key": ` in a one-line JSON reply (the first match).
uint64_t JsonCount(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << line;
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

TEST(SocketServerTest, StatsHealthAndMetricsRenderOneSource) {
  // Every count lives in one registry, so the three JSON surfaces cannot
  // drift apart: at quiescence `stats`, `health` and `metrics` report the
  // same requests, memo hits and accepted connections, and so do the typed
  // accessors.
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_one_source.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("onesource");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  {
    // A first connection that comes and goes.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("quit");
    client.WaitFor("ok quit");
    client.WaitForEof();
  }
  // Its teardown finishes just after the EOF; wait for it, so the active
  // gauge holds still while the three replies are compared.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.connections_active() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.connections_active(), 0u);
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd cat");
  for (int i = 0; i < 3; ++i) {
    client.Send("query cat section");
    client.Send("flush");
    client.WaitFor("ok flush");
  }
  client.Send("stats");
  const std::string stats = client.WaitFor("stats {");
  client.Send("health");
  const std::string health = client.WaitFor("health {");
  client.Send("metrics");
  const std::string metrics = client.WaitFor("metrics {");

  EXPECT_EQ(JsonCount(stats, "requests"), 3u) << stats;
  EXPECT_EQ(JsonCount(stats, "memo_hits"), 2u) << stats;
  EXPECT_EQ(JsonCount(stats, "connections_accepted"), 2u) << stats;
  for (const char* key : {"requests", "memo_hits", "connections_accepted"}) {
    EXPECT_EQ(JsonCount(health, key), JsonCount(stats, key)) << key;
  }
  // In `metrics` the connection counts are counters (the active count a
  // gauge) and memo hits are the `memo-hit` route count.
  const size_t counters = metrics.find("\"counters\": {");
  const size_t gauges = metrics.find("\"gauges\": {");
  ASSERT_NE(counters, std::string::npos) << metrics;
  ASSERT_NE(gauges, std::string::npos) << metrics;
  const std::string counter_part = metrics.substr(counters, gauges - counters);
  EXPECT_EQ(JsonCount(counter_part, "requests"), JsonCount(stats, "requests"));
  EXPECT_EQ(JsonCount(counter_part, "connections_accepted"),
            JsonCount(stats, "connections_accepted"));
  EXPECT_EQ(JsonCount(metrics.substr(gauges), "connections_active"),
            JsonCount(stats, "connections_active"));
  EXPECT_EQ(JsonCount(metrics, "memo-hit"), JsonCount(stats, "memo_hits"));

  EXPECT_EQ(engine.stats().requests, 3u);
  EXPECT_EQ(engine.stats().memo_hits, 2u);
  EXPECT_EQ(server.connections_accepted(), 2u);
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, MaxConnectionsRejectsWithErrBusy) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("busy");
  opt.max_connections = 2;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> first = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(first.ok()) << first.error();
  TestClient a(std::move(first).value());
  Result<net::ScopedFd> second = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(second.ok()) << second.error();
  TestClient b(std::move(second).value());
  // Make sure both are admitted (not still in the accept queue) before the
  // over-cap attempt.
  a.Send("stats");
  a.WaitFor("stats {");
  b.Send("stats");
  b.WaitFor("stats {");
  ASSERT_EQ(server.connections_active(), 2u);

  {
    Result<net::ScopedFd> third = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(third.ok()) << third.error();
    TestClient rejected(std::move(third).value());
    rejected.WaitFor("err busy max-connections (2) reached");
    rejected.WaitForEof();
  }
  EXPECT_EQ(server.connections_rejected(), 1u);
  EXPECT_EQ(server.connections_accepted(), 2u) << "rejects are not accepts";

  // Freeing a slot re-opens admission. The retire is asynchronous (worker
  // teardown, then the reactor erases), so retry until admitted.
  a.Send("quit");
  a.WaitFor("ok quit");
  a.WaitForEof();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    Result<net::ScopedFd> again = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(again.ok()) << again.error();
    TestClient c(std::move(again).value());
    c.TrySend("stats");
    if (c.WaitForAny({"stats {", "err busy"}).rfind("stats", 0) == 0) {
      admitted = true;
      c.Send("quit");
      c.WaitFor("ok quit");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(admitted) << "slot never freed after quit";
  server.Stop();
}

TEST(SocketServerTest, PerIpThrottleAnswersErrThrottledOnTcp) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.tcp_port = 0;
  opt.tcp_accepts_per_ip_per_sec = 1;  // burst 1: the second accept trips it
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> first = net::ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(first.ok()) << first.error();
  TestClient a(std::move(first).value());
  a.Send("stats");
  a.WaitFor("stats {");

  // At 1 accept/sec, back-to-back connects must trip the bucket; retry a
  // few times so a >1s scheduler stall (which refills a token) cannot turn
  // this into a flake.
  bool throttled = false;
  for (int attempt = 0; attempt < 10 && !throttled; ++attempt) {
    Result<net::ScopedFd> next =
        net::ConnectTcp("127.0.0.1", server.tcp_port());
    ASSERT_TRUE(next.ok()) << next.error();
    TestClient b(std::move(next).value());
    b.TrySend("stats");
    std::string reply = b.WaitForAny({"stats {", "err throttled"});
    if (reply.rfind("err throttled", 0) == 0) {
      throttled = true;
      b.WaitForEof();
    }
  }
  EXPECT_TRUE(throttled) << "no accept was ever throttled";
  EXPECT_GE(server.connections_throttled(), 1u);

  a.Send("quit");
  a.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, IdleTimeoutEvictsSilentButNotActiveConnections) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_idle.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("idle");
  opt.idle_timeout_ms = 2000;  // generous: activity pings land well inside
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd");
  // Active phase: keep traffic flowing for LONGER than idle_timeout_ms.
  // Surviving it proves the timeout runs from last activity, not from
  // accept.
  auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(2500)) {
    client.Send("query cat section");
    client.WaitFor(" -- ");
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  EXPECT_EQ(server.idle_evictions(), 0u)
      << "an active connection was evicted";
  // Silent phase: the eviction arrives with a structured error, then EOF.
  client.WaitFor("err idle-timeout", /*timeout_ms=*/10000);
  client.WaitForEof();
  EXPECT_EQ(server.idle_evictions(), 1u);
  server.Stop();
}

size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(SocketServerTest, DisconnectCyclesReturnFdsToBaselineWhileIdle) {
  // The old design parked one thread + fd per finished connection until the
  // NEXT accept ran the reaper — an idle server held resources forever.
  // The reactor retires connections as they finish; after N cycles the
  // process must be back at its fd baseline with zero live connections,
  // without any further traffic to nudge it.
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("reap");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  const size_t baseline = CountOpenFds();
  ASSERT_GT(baseline, 0u);

  for (int cycle = 0; cycle < 20; ++cycle) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    if (cycle % 2 == 0) {
      client.Send("quit");  // clean close
      client.WaitFor("ok quit");
      client.WaitForEof();
    }
    // Odd cycles: abrupt disconnect (~TestClient shuts the socket down).
  }

  // Retirement is asynchronous; poll briefly instead of trusting a single
  // instant.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.connections_active() != 0 || CountOpenFds() > baseline) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.connections_active(), 0u);
  EXPECT_LE(CountOpenFds(), baseline)
      << "an idle server is still holding per-connection fds";
  EXPECT_EQ(server.connections_accepted(), 20u);
  server.Stop();
}

TEST(SocketServerTest, StartPartialFailureUnlinksTheUnixSocketFile) {
  // Occupy a TCP port so the second listener bind fails AFTER the unix
  // listener bound (and created its socket file).
  int taken_port = -1;
  Result<net::ScopedFd> blocker =
      net::ListenTcp("127.0.0.1", 0, &taken_port);
  ASSERT_TRUE(blocker.ok()) << blocker.error();

  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("partial");
  opt.tcp_port = taken_port;  // already bound: Start must fail
  {
    SocketServer server(&engine, opt);
    Status started = server.Start();
    ASSERT_FALSE(started.ok());
    // The failure path must have unlinked the file the unix bind created —
    // a leftover file would shadow the path for every later server.
    struct stat st;
    EXPECT_EQ(::stat(opt.unix_path.c_str(), &st), -1)
        << "stale unix socket file left behind by failed Start";
    EXPECT_EQ(errno, ENOENT);
  }
  // And the path is genuinely reusable right away.
  SocketServerOptions retry_opt;
  retry_opt.unix_path = opt.unix_path;
  SocketServer retry(&engine, retry_opt);
  ASSERT_TRUE(retry.Start().ok());
  Result<net::ScopedFd> fd = net::ConnectUnix(retry_opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("quit");
  client.WaitFor("ok quit");
  retry.Stop();
}

TEST(SocketServerTest, ConcurrentStopsAllBlockUntilShutdownIsComplete) {
  // Regression, two shutdown races: (1) Stop() used to gate on
  // `stopping_.exchange(true)`, so a caller racing another Stop() (second
  // signal, destructor, the reactor's poller-failure self-stop) returned
  // IMMEDIATELY while threads were still serving — and shutdown-path
  // actions sequenced after it (stats dump, --save-on-exit snapshot) ran
  // against a live server. (2) A worker finishing a line batch tested its
  // stale pre-batch `input_closed` copy, so a close landing mid-batch
  // (here: BeginShutdown's CloseInput while the 8 queries are being
  // handled, whose ScheduleLocked the worker's own token suppresses) was
  // dropped — the connection was never retired and Stop() hung joining a
  // reactor waiting for exactly that. Now every caller must observe a
  // complete stop: after ANY Stop() returns, the unix socket file is
  // unlinked and no new connection is possible.
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_stopraces.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("stopraces");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  // Keep a connection live with in-flight heavy work so the stop actually
  // has draining to do (an idle stop would mask the race).
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd d " + dtd_path);
  client.WaitFor("ok dtd");
  for (int i = 0; i < 8; ++i) {
    client.Send(std::string("query d ") + kHeavyQuery);
  }

  constexpr int kStoppers = 4;
  std::atomic<int> returned{0};
  std::vector<std::thread> stoppers;
  stoppers.reserve(kStoppers);
  for (int i = 0; i < kStoppers; ++i) {
    stoppers.emplace_back([&] {
      server.Stop();
      // The invariant under test: the moment MY Stop() returns — winner or
      // late arrival — the socket file is gone and connects are refused.
      struct stat st;
      EXPECT_EQ(::stat(opt.unix_path.c_str(), &st), -1)
          << "Stop() returned before the unix socket was unlinked";
      Result<net::ScopedFd> refused = net::ConnectUnix(opt.unix_path);
      EXPECT_FALSE(refused.ok())
          << "Stop() returned while the server still accepts connections";
      returned.fetch_add(1);
    });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(returned.load(), kStoppers);
  // Still idempotent after the dust settles.
  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace xpathsat
