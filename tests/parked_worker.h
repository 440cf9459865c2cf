// ParkedWorker: holds a one-thread SatEngine's only pool worker until
// Release(), so a test can tell work answered without the pool (it still
// completes) from work that needs a worker (it cannot).
//
// The worker is parked inside a completion callback: a callback runs on the
// worker that fulfils the ticket, before that worker can pick up anything
// queued behind it. A callback registered on a ticket that already
// completed runs inline on the registering thread instead; that attempt is
// retried with a fresh blocker. Blockers carry no DTD handle, so each one
// goes through the pool (no memo can answer it) and resolves at once with
// an error response.
#ifndef XPATHSAT_TESTS_PARKED_WORKER_H_
#define XPATHSAT_TESTS_PARKED_WORKER_H_

#include <future>
#include <memory>
#include <thread>

#include "src/engine/sat_engine.h"

namespace xpathsat {

class ParkedWorker {
 public:
  /// Returns once the worker is inside the parking callback.
  explicit ParkedWorker(SatEngine* engine)
      : released_(release_.get_future().share()) {
    const std::thread::id parker = std::this_thread::get_id();
    for (bool held = false; !held;) {
      ++blockers_;
      auto entered = std::make_shared<std::promise<void>>();
      std::future<void> entered_future = entered->get_future();
      auto ran_inline = std::make_shared<bool>(false);
      engine->Submit(SatRequest())
          .OnComplete([released = released_, parker, entered,
                       ran_inline](const SatResponse&) {
            if (std::this_thread::get_id() == parker) {
              *ran_inline = true;
              return;
            }
            entered->set_value();
            released.wait();
          });
      held = !*ran_inline;
      if (held) entered_future.wait();
    }
  }
  ~ParkedWorker() { Release(); }

  ParkedWorker(const ParkedWorker&) = delete;
  ParkedWorker& operator=(const ParkedWorker&) = delete;

  /// Lets the worker go. Idempotent.
  void Release() {
    if (!released_now_) {
      released_now_ = true;
      release_.set_value();
    }
  }

  /// Blocker requests submitted (each counts in SatEngineStats::requests).
  int blockers() const { return blockers_; }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_;
  bool released_now_ = false;
  int blockers_ = 0;
};

}  // namespace xpathsat

#endif  // XPATHSAT_TESTS_PARKED_WORKER_H_
