// ServerSession: one client's view of a shared SatEngine, speaking the line
// protocol (src/server/protocol.h). Both front ends sit on this class —
// `xpathsat_cli --serve` feeds it stdin lines, `xpathsat_server` feeds it
// socket lines — so there is exactly one protocol implementation.
//
// Each session owns
//   * a DTD-handle namespace (NAME -> DtdHandle): names are per-connection,
//     but the handles all pin artifacts in the ONE shared engine, so two
//     clients registering the same schema share a compilation and hit each
//     other's verdict memo entries;
//   * an in-flight ticket table (engine ticket id -> SatTicket), which is
//     what makes cancellation externally addressable: `cancel ID` works for
//     any id this session was ack'd for and has not yet seen complete.
//
// Responses are pipelined: `query` answers immediately with `ok query ID`,
// and the result line is emitted later — possibly out of submission order —
// from the engine thread that completes the ticket (via
// SatTicket::OnComplete), or right after the ack on the session's own
// thread when the engine answered a memo hit inside Submit. There is no
// per-ticket drain thread anywhere.
//
// Thread-safety: HandleLine must be called from one thread at a time (the
// connection's reader), but the sink is invoked concurrently from engine
// threads; sinks must be internally synchronized. The shared state that
// callbacks touch outlives the session object itself (callbacks keep it
// alive), so tearing a session down while results are in flight is safe —
// Drain() is only needed when the caller wants every result emitted before
// proceeding (flush/quit/EOF).
#ifndef XPATHSAT_SERVER_SESSION_H_
#define XPATHSAT_SERVER_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/sat_engine.h"
#include "src/obs/metrics.h"
#include "src/server/protocol.h"

namespace xpathsat {
namespace server {

struct SessionOptions {
  /// Per-request deadline cap forwarded to every submitted query (0: none).
  int64_t deadline_ms = 0;
  /// Service traffic wants verdicts; witnesses are off unless a front end
  /// opts in.
  bool compute_witness = false;
  /// In-flight ticket cap per session: a `query` that would exceed it
  /// blocks HandleLine until a completion frees a slot, back-pressuring the
  /// connection (the reader stalls, so the kernel stalls the client's
  /// sends) instead of queueing unbounded work in the shared engine. Must
  /// be >= 1.
  size_t max_inflight = 1024;
  /// Shared secret. When nonempty, the session starts unauthenticated: the
  /// ONLY verbs accepted are `auth SECRET` (right secret -> `ok auth`;
  /// wrong -> `err bad-auth` and the session closes) and `health` (always
  /// unauthenticated, so load balancers can probe without the secret).
  /// Anything else answers `err auth-required` and closes the session.
  std::string auth_secret;
  /// The front end's own registry, or null. The socket server sets its
  /// registry (connection counters, worker queue, reactor loop); then
  /// `stats` and `health` answer the server object wrapping the engine
  /// stats, and `metrics` / `metrics prom` render both registries. Null
  /// (`--serve`) renders the engine alone. Must outlive the session.
  const obs::MetricsRegistry* server_metrics = nullptr;
};

/// The one `stats`/`health` JSON object. With `server_metrics`:
/// {"status": "ok", "connections_active": N, "connections_accepted": N,
/// "connections_rejected": N, "connections_throttled": N,
/// "idle_evictions": N, "engine": <engine stats>}, every count read from
/// that registry. Without: the engine stats object alone
/// (protocol::FormatStatsJson).
std::string StatsJson(const SatEngine& engine,
                      const obs::MetricsRegistry* server_metrics);

/// What `metrics`, `metrics prom` and `xpathsat_server --metrics-dump-ms`
/// render: the engine registry, then `server_metrics` when non-null, the
/// engine's route counts, its uptime and the next snapshot sequence number.
obs::MetricsRenderInput MetricsInput(
    const SatEngine& engine, const obs::MetricsRegistry* server_metrics);

class ServerSession {
 public:
  /// `sink` emits one reply line (no trailing newline). It is called from
  /// the session's own thread (acks, errors, stats, memo-hit results) AND
  /// from engine completion threads (result lines); it must be thread-safe
  /// and must not block indefinitely. `engine` must outlive the session.
  using LineSink = std::function<void(const std::string&)>;

  /// `before_block` (optional) runs on the session's thread right before it
  /// blocks — in the in-flight cap wait or in Drain. A sink that holds
  /// lines back (the socket server batches one pass's replies into one
  /// write) must emit them there and stop holding back, so no reply waits
  /// behind the blocking wait.
  ServerSession(SatEngine* engine, SessionOptions options, LineSink sink,
                std::function<void()> before_block = nullptr);
  ~ServerSession();  // waits for in-flight results (Drain)

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Processes one raw request line, emitting any replies through the sink.
  /// Returns false when the session is over (quit); the caller should stop
  /// feeding lines and let the session drain.
  bool HandleLine(const std::string& line);

  /// Tells the session its input stream ended (EOF/teardown) with no
  /// further lines coming. A batch still collecting members answers one
  /// `err batch-mismatch` — nothing from an incomplete batch is ever
  /// dispatched. Idempotent; emits nothing when no batch is pending.
  void OnInputClosed();

  /// Emits an `err` line through the sink (transport-level errors the
  /// session cannot detect itself, e.g. an oversized line swallowed by the
  /// connection's LineReader).
  void EmitError(const std::string& code, const std::string& detail);

  /// Blocks until every submitted ticket's result line has been emitted.
  void Drain();

  /// Tickets submitted over this session's lifetime.
  uint64_t queries_submitted() const { return queries_submitted_; }

 private:
  struct Shared;  // inflight table + sink; kept alive by result callbacks

  /// Collect state for one `batch N` in progress: members are buffered and
  /// validated here; nothing touches the engine until all N arrived clean.
  struct PendingBatch {
    uint64_t seq = 0;       // per-session batch number (in the ack/done lines)
    uint64_t expected = 0;  // N from `batch N`
    uint64_t received = 0;  // member lines consumed so far (incl. poisoned)
    bool poisoned = false;  // a member failed validation; swallow the rest
    std::string error;      // first violation, for the batch-mismatch detail
    std::vector<protocol::Command> members;
  };

  void HandleCommand(const protocol::Command& command);
  /// Blocks until at most `limit` tickets are in flight, running
  /// before_block_ first when it has to wait.
  void WaitForInflightAtMost(size_t limit);
  void CollectBatchMember(const protocol::ParseResult& parsed);
  void DispatchBatch();

  SatEngine* engine_;
  SessionOptions options_;
  std::function<void()> before_block_;
  std::shared_ptr<Shared> shared_;
  std::map<std::string, DtdHandle> schemas_;
  uint64_t queries_submitted_ = 0;
  bool closed_ = false;
  bool authed_ = false;  // vacuously true when no secret is configured
  bool batch_granted_ = false;  // `hello batch` negotiated
  uint64_t next_batch_seq_ = 1;
  std::unique_ptr<PendingBatch> batch_;  // non-null while collecting members
};

}  // namespace server
}  // namespace xpathsat

#endif  // XPATHSAT_SERVER_SESSION_H_
