// Thin POSIX socket helpers for the serving layer: unix-domain and TCP
// listeners/connectors, EINTR-safe full writes, newline framing, readiness
// polling, and nonblocking-fd control.
//
// Everything here is transport plumbing — no protocol knowledge. The server
// (src/server/) and the CLI's --connect client both sit on these so there is
// exactly one place that handles partial reads/writes, SIGPIPE suppression,
// and hostile line lengths.
//
// All functions return Status/Result and never throw; fds are plain ints
// wrapped in ScopedFd for ownership.
#ifndef XPATHSAT_UTIL_NET_H_
#define XPATHSAT_UTIL_NET_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace xpathsat {
namespace net {

/// Owns a file descriptor; closes it on destruction. Movable, not copyable.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { Close(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Close();

 private:
  int fd_ = -1;
};

/// Validates a TCP port number. Listeners may use 0 (ephemeral); connectors
/// must name a real port. Anything outside [min, 65535] is a structured
/// error — notably ports > 65535, which a bare uint16_t cast would silently
/// truncate (70000 -> 4464).
Status ValidatePort(int port, bool allow_ephemeral);

/// Creates a unix-domain stream listener bound to `path` (unlinking a stale
/// socket file first). The path must fit in sockaddr_un (~107 bytes) —
/// callers should prefer short, working-directory-relative paths.
Result<ScopedFd> ListenUnix(const std::string& path, int backlog = 64);

/// Creates a TCP stream listener on `host:port` (host defaults to loopback;
/// port 0 picks an ephemeral port). On success `*actual_port` (if non-null)
/// receives the bound port. Ports outside [0, 65535] are rejected.
Result<ScopedFd> ListenTcp(const std::string& host, int port,
                           int* actual_port, int backlog = 64);

/// Blocking accept; returns the connected fd. EINTR is retried; other
/// failures (including the listener being closed during shutdown) are
/// errors.
Result<ScopedFd> Accept(int listen_fd);

/// Accept that also reports the peer address ("a.b.c.d" for TCP peers,
/// empty for unix-domain peers). Nonblocking listeners surface EAGAIN /
/// EWOULDBLOCK as `*would_block = true` with an error result.
Result<ScopedFd> AcceptWithPeer(int listen_fd, std::string* peer_ip,
                                bool* would_block);

/// Connects to a unix-domain listener at `path`.
Result<ScopedFd> ConnectUnix(const std::string& path);

/// Connects to `host:port` over TCP. Ports outside [1, 65535] are rejected.
Result<ScopedFd> ConnectTcp(const std::string& host, int port);

/// Sets or clears O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd, bool nonblocking);

/// Writes all of `data`, retrying short writes and EINTR. SIGPIPE is
/// suppressed (MSG_NOSIGNAL); a peer hangup surfaces as an error Status.
/// A zero-length send() — the transport making no progress — is reported as
/// a distinct "connection closed" error, never through stale errno text.
Status WriteAll(int fd, const std::string& data);

namespace internal {
/// The WriteAll loop over an injectable send function (same contract as
/// send(2): bytes written, 0 for no progress, -1 + errno for failure).
/// Exists so the n == 0 and EINTR paths are unit-testable without a socket
/// that misbehaves on cue.
Status WriteAllWith(const std::function<ssize_t(const char*, size_t)>& send_fn,
                    const std::string& data);
}  // namespace internal

/// Incremental newline framing with a hard per-line byte cap — the push-side
/// core shared by the blocking LineReader and the reactor's nonblocking read
/// path, so there is exactly one implementation of oversized-line handling.
///
/// Feed() appends raw bytes; Next() drains decoded events. A line of exactly
/// max_line_bytes is still a line; one byte more is reported kOversized once
/// (with a short prefix in *line), the rest is swallowed through its
/// newline, and the stream stays usable. The cap counts line *content*: a
/// CR-LF terminator's '\r' is part of the terminator, not the line, so CR-LF
/// clients get the same budget as LF clients. After SignalEof, any
/// unterminated tail is returned first as a kLine, then kEof.
class LineDecoder {
 public:
  enum class Event {
    kNone,       // no complete event buffered; feed more bytes
    kLine,       // *line holds the next line ('\n' stripped, '\r' too)
    kOversized,  // a too-long line was discarded; *line holds a prefix
    kEof,        // clean end of stream
  };

  explicit LineDecoder(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  void Feed(const char* data, size_t size) {
    buffer_.append(data, size);
  }
  void SignalEof() { eof_ = true; }

  /// Returns the next buffered event; kNone means more input is needed.
  /// `line` must be non-null.
  Event Next(std::string* line);

  /// Bytes buffered but not yet consumed (bounded: the decoder never holds
  /// more than max_line_bytes + one Feed chunk).
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  size_t max_line_bytes_;
  std::string buffer_;   // bytes fed but not yet consumed
  size_t scanned_ = 0;   // prefix of buffer_ known to contain no '\n'
  bool discarding_ = false;
  bool eof_ = false;
};

/// Buffered newline-delimited reader with a hard per-line byte cap: a
/// blocking read(2) loop over a LineDecoder.
///
/// ReadLine returns one logical line (without the trailing '\n'; a trailing
/// '\r' is stripped). A line longer than `max_line_bytes` is NEVER returned
/// as a kLine — whether its newline was already buffered or the buffer
/// outgrew the cap mid-line: the reader reports kOversized once (with a
/// short prefix in *line), swallows input through the line's newline, and
/// the stream stays usable — protocol code answers with a structured error
/// instead of either buffering without bound or killing the connection.
class LineReader {
 public:
  enum class Event {
    kLine,       // *line holds the next line
    kOversized,  // a too-long line was discarded; *line holds a prefix
    kEof,        // clean end of stream (any unterminated tail is returned
                 // first as a kLine)
    kError,      // read(2) failure; *error holds strerror
  };

  explicit LineReader(int fd, size_t max_line_bytes)
      : fd_(fd), decoder_(max_line_bytes) {}

  /// Blocks for the next event. `line` and `error` must be non-null.
  Event ReadLine(std::string* line, std::string* error);

 private:
  int fd_;
  LineDecoder decoder_;
};

/// Readiness multiplexer: epoll(7) on Linux, poll(2) everywhere (and on
/// Linux too when constructed with force_poll, which keeps the fallback
/// honest under test). Level-triggered, read-side only — the serving layer
/// writes from completion threads with send timeouts, so the reactor never
/// needs write readiness.
class Poller {
 public:
  // Event bitmask values for Ready::events.
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kHangup = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;

  struct Ready {
    int fd = -1;
    uint32_t events = 0;
  };

  explicit Poller(bool force_poll = false);
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// True when the poller could be set up (epoll_create1 can fail under fd
  /// pressure); a dead poller fails every Wait.
  bool ok() const;

  /// Starts watching `fd` for read readiness (and hangup). Watching an
  /// already-watched fd is an error.
  Status Add(int fd);
  /// Stops watching `fd`.
  Status Remove(int fd);

  /// Blocks up to `timeout_ms` (-1: indefinitely) and appends ready fds to
  /// `*out` (which is cleared first). Returns the number of ready fds; 0 on
  /// timeout. EINTR is retried.
  Result<int> Wait(std::vector<Ready>* out, int timeout_ms);

  size_t watched_fds() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace xpathsat

#endif  // XPATHSAT_UTIL_NET_H_
