// A fixed-size thread pool for batch execution. Workers pull std::function
// jobs from a mutex-protected queue; Submit returns a std::future so callers
// can block on individual items or the whole batch. Destruction drains the
// queue (already-submitted jobs run to completion) and joins all workers.
//
// SubmitCancellable enqueues a job behind a CancellableJob control block:
// anyone holding the block can revoke the job while it is still queued, and
// the popped queue entry then returns without running it. The arbitration is
// a single atomic state CAS, so exactly one of {worker, canceller} wins —
// this is what lets the SatEngine's deadline reaper cancel queued work
// instead of letting it expire on a worker.
//
// The queue and stop flag are GUARDED_BY(mu_): a Clang -Wthread-safety
// build proves every access (including the shutdown path) holds the lock.
//
// The pool is intentionally minimal: no work stealing, no priorities. The
// SatEngine submits coarse-grained jobs (one satisfiability decision each),
// so queue contention is negligible next to the work items.
#ifndef XPATHSAT_UTIL_THREAD_POOL_H_
#define XPATHSAT_UTIL_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {

/// Shared control block for a cancellable pool submission. The lifecycle is
/// kQueued -> (kRunning -> kDone | kCancelled); both transitions out of
/// kQueued are CASes on one atomic, so a worker starting the job and a
/// caller cancelling it cannot both win.
///
/// Cancellation only revokes *queued* work: once a worker has started the
/// job it runs to completion and TryCancel returns false. The canceller —
/// not the pool — is responsible for fulfilling whatever result channel the
/// job was going to fill (the job's function is never invoked after a
/// successful cancel).
class CancellableJob {
 public:
  enum class State { kQueued, kRunning, kCancelled, kDone };

  /// Revokes the job if it has not started; returns true iff this call won
  /// (at most one TryCancel over a job's lifetime returns true).
  bool TryCancel() {
    State expected = State::kQueued;
    return state_.compare_exchange_strong(expected, State::kCancelled,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  /// A control block for work that completed without ever being queued
  /// (the SatEngine answers memo hits on the submitting thread): born
  /// kDone, so TryCancel returns false. Never pass it to SubmitCancellable.
  static std::shared_ptr<CancellableJob> AlreadyDone() {
    auto job = std::make_shared<CancellableJob>();
    job->Finish();
    return job;
  }

  State state() const { return state_.load(std::memory_order_acquire); }
  bool cancelled() const { return state() == State::kCancelled; }
  bool done() const { return state() == State::kDone; }

 private:
  friend class ThreadPool;

  bool TryStart() {
    State expected = State::kQueued;
    return state_.compare_exchange_strong(expected, State::kRunning,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }
  void Finish() { state_.store(State::kDone, std::memory_order_release); }

  std::atomic<State> state_{State::kQueued};
};

class ThreadPool {
 public:
  /// Starts `num_threads` workers; values < 1 fall back to
  /// hardware_concurrency (and to 1 when even that is unknown).
  explicit ThreadPool(int num_threads = 0) {
    if (num_threads < 1) {
      num_threads = static_cast<int>(std::thread::hardware_concurrency());
      if (num_threads < 1) num_threads = 1;
    }
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      util::MutexLock lock(mu_);
      stopping_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& w : workers_) w.join();
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns a future for its result. Safe to call from
  /// multiple threads (including from inside pool jobs — but beware that
  /// blocking on a future from within a worker can deadlock a full pool).
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      util::MutexLock lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.NotifyOne();
    return result;
  }

  /// Enqueues `fn` (a void() callable) behind the caller-provided
  /// cancellation control block (which must be fresh — kQueued, never
  /// submitted before). `fn` runs at most once, and only if the job is still
  /// queued when a worker picks it up; after a successful
  /// CancellableJob::TryCancel it is never invoked (and is destroyed without
  /// running). The caller owns any result signalling — the pool exposes no
  /// future here precisely because a cancelled job produces no result.
  /// Taking the block as an argument lets the caller publish it (e.g. store
  /// it in a ticket) *before* a worker can possibly pick the job up.
  template <typename Fn>
  void SubmitCancellable(std::shared_ptr<CancellableJob> job, Fn&& fn) {
    auto body = std::make_shared<typename std::decay<Fn>::type>(
        std::forward<Fn>(fn));
    {
      util::MutexLock lock(mu_);
      queue_.emplace_back([job = std::move(job), body] {
        if (!job->TryStart()) return;  // cancelled while queued
        (*body)();
        job->Finish();
      });
    }
    wake_.NotifyOne();
  }

  /// As above, creating and returning a fresh control block.
  template <typename Fn>
  std::shared_ptr<CancellableJob> SubmitCancellable(Fn&& fn) {
    auto job = std::make_shared<CancellableJob>();
    SubmitCancellable(job, std::forward<Fn>(fn));
    return job;
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        util::MutexLock lock(mu_);
        while (!stopping_ && queue_.empty()) wake_.Wait(mu_);
        if (queue_.empty()) return;  // stopping_ with a drained queue
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  util::Mutex mu_;
  util::CondVar wake_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace xpathsat

#endif  // XPATHSAT_UTIL_THREAD_POOL_H_
