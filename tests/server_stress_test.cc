// Reactor-scale stress battery (CTest label `stress`; the TSan CI job
// re-runs it with --repeat until-fail:3): a thousand concurrent idle
// connections held on reactor threads — not per-connection threads — while
// live traffic keeps its round-trip rate per CPU second, and idle-timeout
// eviction sweeping hundreds of silent connections at once.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/sat_engine.h"
#include "src/server/socket_server.h"
#include "src/util/net.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define XPATHSAT_SANITIZED 1
#endif
#if !defined(XPATHSAT_SANITIZED) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define XPATHSAT_SANITIZED 1
#endif
#endif

namespace xpathsat {
namespace server {
namespace {

std::string SocketPath(const char* tag) {
  return std::string("srvstress_") + tag + "_" + std::to_string(getpid()) +
         ".sock";
}

// Synchronous line-protocol client: one blocking request/reply round trip
// per Call — deliberately latency-bound, so it measures the wire path (the
// reactor's readiness + framing + worker hand-off), not engine throughput.
class SyncClient {
 public:
  explicit SyncClient(net::ScopedFd fd)
      : fd_(std::move(fd)), reader_(fd_.get(), 1 << 20) {}

  std::string Call(const std::string& request, const char* reply_needle) {
    Status sent = net::WriteAll(fd_.get(), request + "\n");
    EXPECT_TRUE(sent.ok()) << sent.message();
    std::string line, error;
    for (;;) {
      net::LineReader::Event ev = reader_.ReadLine(&line, &error);
      if (ev == net::LineReader::Event::kLine) {
        if (line.find(reply_needle) != std::string::npos) return line;
        continue;  // unrelated line (pipelined result) — keep scanning
      }
      ADD_FAILURE() << "stream ended waiting for '" << reply_needle << "'"
                    << (ev == net::LineReader::Event::kError ? ": " + error
                                                             : "");
      return std::string();
    }
  }

 private:
  net::ScopedFd fd_;
  net::LineReader reader_;
};

int ProcessThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Round trips per CPU second of this process (client and server threads)
// over `round_trips` sequential stats calls.
double MeasureRoundTripRate(SyncClient* client, int round_trips) {
  const double start = ProcessCpuSeconds();
  for (int i = 0; i < round_trips; ++i) {
    client->Call("stats", "stats {");
  }
  return round_trips / std::max(ProcessCpuSeconds() - start, 1e-9);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

TEST(ServerStressTest, ThousandIdleConnectionsDontTaxLiveTraffic) {
#ifdef XPATHSAT_SANITIZED
  constexpr int kIdleConnections = 300;  // sanitizers: same shape, less time
  constexpr int kRoundTrips = 50;
  constexpr int kPairs = 3;
#else
  constexpr int kIdleConnections = 1000;
  constexpr int kRoundTrips = 200;
  constexpr int kPairs = 25;
#endif
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("idle1k");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> live_fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(live_fd.ok()) << live_fd.error();
  SyncClient live(std::move(live_fd).value());
  live.Call("stats", "stats {");  // warm the path before timing anything

  auto wait_for_active = [&](uint64_t want) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.connections_active() != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(server.connections_active(), want);
  };
  // Pile on the idle herd. Sequential connects can outrun the accept loop
  // and fill the listen backlog, so failed connects retry after a beat.
  std::vector<net::ScopedFd> idle;
  auto connect_herd = [&] {
    idle.reserve(kIdleConnections);
    while (idle.size() < static_cast<size_t>(kIdleConnections)) {
      Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
      if (!fd.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      idle.push_back(std::move(fd).value());
    }
    // Wait until every one is admitted (accept is asynchronous).
    wait_for_active(static_cast<uint64_t>(kIdleConnections) + 1);
  };

  const int threads_before = ProcessThreadCount();
  ASSERT_GT(threads_before, 0);
  connect_herd();
  // The tentpole's resource claim: the herd added CONNECTIONS, not threads.
  const int threads_after = ProcessThreadCount();
  EXPECT_LT(threads_after - threads_before, 8)
      << "idle connections are being given their own threads";

  // Live traffic must not care that a thousand sockets are parked. The
  // herd comes and goes between paired rounds on the same server and
  // threads, so whatever the host does to those threads (other tests,
  // busy loops on every core, SMT siblings) lands on both sides of a pair;
  // the rate is per CPU second, so time spent waiting for a core is not
  // counted; and the median of the per-pair ratios is compared, so no
  // single round decides.
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    if (pair > 0) connect_herd();
    live.Call("stats", "stats {");
    const double with_idle = MeasureRoundTripRate(&live, kRoundTrips);
    idle.clear();  // mass disconnect
    wait_for_active(1);
    live.Call("stats", "stats {");
    const double baseline = MeasureRoundTripRate(&live, kRoundTrips);
    ratios.push_back(with_idle / baseline);
  }
  const double median_ratio = Median(ratios);
#ifndef XPATHSAT_SANITIZED
  // Under sanitizers timing is noise; the structural assertions above still
  // ran. Unsanitized, the ratio is the acceptance bar.
  EXPECT_GE(median_ratio, 0.9)
      << "live round-trip rate per CPU second under idle load fell to "
      << median_ratio << "x (median over pairs) of the same server without it";
#else
  (void)median_ratio;
#endif

  live.Call("quit", "ok quit");
  server.Stop();
  EXPECT_EQ(server.connections_active(), 0u);
}

TEST(ServerStressTest, IdleTimeoutSweepsAHerdOfSilentConnections) {
#ifdef XPATHSAT_SANITIZED
  constexpr int kHerd = 100;
#else
  constexpr int kHerd = 300;
#endif
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("sweep");
  opt.idle_timeout_ms = 300;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  std::vector<net::ScopedFd> herd;
  herd.reserve(kHerd);
  while (herd.size() < static_cast<size_t>(kHerd)) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    if (!fd.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    herd.push_back(std::move(fd).value());
  }

  // Every one of them goes silent; the wheel must evict the lot and the
  // server must return to zero live connections on its own.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.connections_active() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.connections_active(), 0u);
  EXPECT_EQ(server.idle_evictions(), static_cast<uint64_t>(kHerd));

  // Each evicted socket got the structured goodbye before the close.
  std::string line, error;
  net::LineReader reader(herd[0].get(), 4096);
  ASSERT_EQ(reader.ReadLine(&line, &error), net::LineReader::Event::kLine);
  EXPECT_NE(line.find("err idle-timeout"), std::string::npos) << line;
  EXPECT_EQ(reader.ReadLine(&line, &error), net::LineReader::Event::kEof);

  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace xpathsat
