#include "src/util/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_set>

namespace xpathsat {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

void ScopedFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ValidatePort(int port, bool allow_ephemeral) {
  const int min_port = allow_ephemeral ? 0 : 1;
  if (port < min_port || port > 65535) {
    return Status::Error("port " + std::to_string(port) +
                         " out of range [" + std::to_string(min_port) +
                         ", 65535]");
  }
  return Status::Ok();
}

Result<ScopedFd> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Result<ScopedFd>::Error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Result<ScopedFd>::Error(Errno("socket(unix)"));
  // A stale socket file from a previous run would make bind fail with
  // EADDRINUSE even though nothing is listening — but only ever remove a
  // SOCKET: a mistyped path must not silently delete someone's file.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Result<ScopedFd>::Error(path +
                                     " exists and is not a socket; refusing "
                                     "to replace it");
    }
    ::unlink(path.c_str());
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Result<ScopedFd>::Error(Errno("bind(" + path + ")"));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Result<ScopedFd>::Error(Errno("listen(" + path + ")"));
  }
  return fd;
}

Result<ScopedFd> ListenTcp(const std::string& host, int port,
                           int* actual_port, int backlog) {
  Status port_ok = ValidatePort(port, /*allow_ephemeral=*/true);
  if (!port_ok.ok()) {
    return Result<ScopedFd>::Error("listen: " + port_ok.message());
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string bind_host = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, bind_host.c_str(), &addr.sin_addr) != 1) {
    return Result<ScopedFd>::Error("bad listen address: " + bind_host);
  }

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Result<ScopedFd>::Error(Errno("socket(tcp)"));
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Result<ScopedFd>::Error(
        Errno("bind(" + bind_host + ":" + std::to_string(port) + ")"));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Result<ScopedFd>::Error(Errno("listen(tcp)"));
  }
  if (actual_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return Result<ScopedFd>::Error(Errno("getsockname"));
    }
    *actual_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<ScopedFd> Accept(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return ScopedFd(fd);
    if (errno == EINTR) continue;
    return Result<ScopedFd>::Error(Errno("accept"));
  }
}

Result<ScopedFd> AcceptWithPeer(int listen_fd, std::string* peer_ip,
                                bool* would_block) {
  if (would_block != nullptr) *would_block = false;
  for (;;) {
    sockaddr_storage peer;
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer),
                      &peer_len);
    if (fd >= 0) {
      if (peer_ip != nullptr) {
        peer_ip->clear();
        if (peer.ss_family == AF_INET) {
          char buf[INET_ADDRSTRLEN];
          const sockaddr_in* in = reinterpret_cast<const sockaddr_in*>(&peer);
          if (::inet_ntop(AF_INET, &in->sin_addr, buf, sizeof(buf))) {
            *peer_ip = buf;
          }
        }
      }
      return ScopedFd(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (would_block != nullptr) *would_block = true;
      return Result<ScopedFd>::Error("accept: would block");
    }
    return Result<ScopedFd>::Error(Errno("accept"));
  }
}

Result<ScopedFd> ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Result<ScopedFd>::Error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Result<ScopedFd>::Error(Errno("socket(unix)"));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Result<ScopedFd>::Error(Errno("connect(" + path + ")"));
  }
  return fd;
}

Result<ScopedFd> ConnectTcp(const std::string& host, int port) {
  Status port_ok = ValidatePort(port, /*allow_ephemeral=*/false);
  if (!port_ok.ok()) {
    return Result<ScopedFd>::Error("connect: " + port_ok.message());
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string connect_host = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, connect_host.c_str(), &addr.sin_addr) != 1) {
    return Result<ScopedFd>::Error("bad address: " + connect_host);
  }
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Result<ScopedFd>::Error(Errno("socket(tcp)"));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Result<ScopedFd>::Error(
        Errno("connect(" + connect_host + ":" + std::to_string(port) + ")"));
  }
  return fd;
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::Error(Errno("fcntl(F_GETFL)"));
  int wanted = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0) {
    return Status::Error(Errno("fcntl(F_SETFL)"));
  }
  return Status::Ok();
}

namespace internal {

Status WriteAllWith(const std::function<ssize_t(const char*, size_t)>& send_fn,
                    const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = send_fn(data.data() + off, data.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      // A zero-length send makes no progress and sets no errno — reporting
      // strerror(errno) here would surface whatever some earlier call left
      // behind. Name the condition instead.
      return Status::Error("send: short write (connection closed)");
    }
    if (errno == EINTR) continue;
    return Status::Error(Errno("send"));
  }
  return Status::Ok();
}

}  // namespace internal

Status WriteAll(int fd, const std::string& data) {
  return internal::WriteAllWith(
      [fd](const char* buf, size_t len) {
        return ::send(fd, buf, len, MSG_NOSIGNAL);
      },
      data);
}

LineDecoder::Event LineDecoder::Next(std::string* line) {
  for (;;) {
    // Consume what the buffer already holds.
    size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      if (discarding_) {
        // Tail of an oversized line: swallow through the newline and resume
        // normal framing.
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        discarding_ = false;
        continue;
      }
      // The '\r' of a CR-LF terminator is part of the terminator, not the
      // line: discount it so CR-LF clients get the full content budget.
      const size_t content =
          nl - ((nl > 0 && buffer_[nl - 1] == '\r') ? 1 : 0);
      if (content > max_line_bytes_) {
        // The whole oversized line arrived in one gulp (no incremental
        // overflow was ever seen): still report it, never return it.
        *line = buffer_.substr(0, 64);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return Event::kOversized;
      }
      *line = buffer_.substr(0, content);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return Event::kLine;
    }
    scanned_ = buffer_.size();
    if (discarding_) {
      buffer_.clear();  // still mid-oversized-line: drop and keep reading
      scanned_ = 0;
    } else if (buffer_.size() -
                   ((!buffer_.empty() && buffer_.back() == '\r') ? 1 : 0) >
               max_line_bytes_) {
      // Incremental overflow mid-line. A single trailing '\r' may be a
      // CR-LF terminator whose '\n' has not arrived yet, so it does not
      // count against the cap (a '\r' anywhere else is line content and
      // does). Report once with a short prefix for the error message, then
      // swallow the rest of the line.
      *line = buffer_.substr(0, 64);
      buffer_.clear();
      scanned_ = 0;
      discarding_ = true;
      return Event::kOversized;
    }
    if (eof_) {
      if (!discarding_ && !buffer_.empty()) {
        // Unterminated final line.
        *line = buffer_;
        if (!line->empty() && line->back() == '\r') line->pop_back();
        buffer_.clear();
        scanned_ = 0;
        return Event::kLine;
      }
      return Event::kEof;
    }
    return Event::kNone;
  }
}

LineReader::Event LineReader::ReadLine(std::string* line, std::string* error) {
  for (;;) {
    switch (decoder_.Next(line)) {
      case LineDecoder::Event::kLine:
        return Event::kLine;
      case LineDecoder::Event::kOversized:
        return Event::kOversized;
      case LineDecoder::Event::kEof:
        return Event::kEof;
      case LineDecoder::Event::kNone:
        break;  // need more bytes
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      decoder_.Feed(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      decoder_.SignalEof();
    } else if (errno != EINTR) {
      *error = std::strerror(errno);
      return Event::kError;
    }
  }
}

// --- Poller ---------------------------------------------------------------

struct Poller::Impl {
#if defined(__linux__)
  ScopedFd epoll_fd;
  bool use_epoll = false;
#endif
  // poll(2) fallback state (also the only state off-Linux).
  std::vector<pollfd> poll_fds;
  std::unordered_set<int> watched;
};

Poller::Poller(bool force_poll) : impl_(new Impl) {
#if defined(__linux__)
  if (!force_poll) {
    impl_->epoll_fd = ScopedFd(::epoll_create1(EPOLL_CLOEXEC));
    impl_->use_epoll = impl_->epoll_fd.valid();
  }
#else
  (void)force_poll;
#endif
}

Poller::~Poller() = default;

bool Poller::ok() const {
#if defined(__linux__)
  if (impl_->use_epoll) return impl_->epoll_fd.valid();
#endif
  return true;
}

size_t Poller::watched_fds() const { return impl_->watched.size(); }

Status Poller::Add(int fd) {
  if (impl_->watched.count(fd) > 0) {
    return Status::Error("poller: fd " + std::to_string(fd) +
                         " already watched");
  }
#if defined(__linux__)
  if (impl_->use_epoll) {
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(impl_->epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Status::Error(Errno("epoll_ctl(ADD)"));
    }
    impl_->watched.insert(fd);
    return Status::Ok();
  }
#endif
  pollfd p;
  std::memset(&p, 0, sizeof(p));
  p.fd = fd;
  p.events = POLLIN;
  impl_->poll_fds.push_back(p);
  impl_->watched.insert(fd);
  return Status::Ok();
}

Status Poller::Remove(int fd) {
  if (impl_->watched.erase(fd) == 0) {
    return Status::Error("poller: fd " + std::to_string(fd) + " not watched");
  }
#if defined(__linux__)
  if (impl_->use_epoll) {
    if (::epoll_ctl(impl_->epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr) != 0) {
      return Status::Error(Errno("epoll_ctl(DEL)"));
    }
    return Status::Ok();
  }
#endif
  auto& fds = impl_->poll_fds;
  fds.erase(std::remove_if(fds.begin(), fds.end(),
                           [fd](const pollfd& p) { return p.fd == fd; }),
            fds.end());
  return Status::Ok();
}

Result<int> Poller::Wait(std::vector<Ready>* out, int timeout_ms) {
  out->clear();
#if defined(__linux__)
  if (impl_->use_epoll) {
    epoll_event events[64];
    for (;;) {
      int n = ::epoll_wait(impl_->epoll_fd.get(), events, 64, timeout_ms);
      if (n >= 0) {
        for (int i = 0; i < n; ++i) {
          Ready r;
          r.fd = events[i].data.fd;
          if (events[i].events & (EPOLLIN | EPOLLRDHUP)) r.events |= kReadable;
          if (events[i].events & EPOLLHUP) r.events |= kHangup;
          if (events[i].events & EPOLLERR) r.events |= kError;
          out->push_back(r);
        }
        return n;
      }
      if (errno == EINTR) continue;
      return Result<int>::Error(Errno("epoll_wait"));
    }
  }
#endif
  for (;;) {
    int n = ::poll(impl_->poll_fds.empty() ? nullptr : impl_->poll_fds.data(),
                   static_cast<nfds_t>(impl_->poll_fds.size()), timeout_ms);
    if (n >= 0) {
      for (const pollfd& p : impl_->poll_fds) {
        if (p.revents == 0) continue;
        Ready r;
        r.fd = p.fd;
        if (p.revents & POLLIN) r.events |= kReadable;
        if (p.revents & POLLHUP) r.events |= kHangup | kReadable;
        if (p.revents & (POLLERR | POLLNVAL)) r.events |= kError;
        out->push_back(r);
      }
      return static_cast<int>(out->size());
    }
    if (errno == EINTR) continue;
    return Result<int>::Error(Errno("poll"));
  }
}

}  // namespace net
}  // namespace xpathsat
