// Fixed-size worker pool for batched analysis and the threaded gemm
// kernel. Deliberately small: a mutex-guarded FIFO of std::function jobs,
// workers joined on destruction, and a wait() barrier that lets a caller
// collect results while keeping the pool alive (runBatch sizes a fresh
// pool to each batch and tears it down afterwards; the create/join cost is
// noise next to one analysis).
//
// ## Threading contract (machine-checked by the `tsan` CI job and
// ## tests/test_thread_pool_stress.cpp)
//
//   * submit() and wait() may be called concurrently from any number of
//     threads; every shared field (queue_, inFlight_, stopping_,
//     firstError_) is guarded by mu_. The executed-jobs counter is a
//     relaxed atomic: it is a monotonic statistic, never a
//     synchronization point.
//   * A job MAY throw. The pool is never poisoned by a throwing job: the
//     worker catches the exception, records the FIRST one, and keeps
//     serving the queue. The recorded exception is rethrown by the next
//     wait() call (then cleared); exceptions still pending at destruction
//     are dropped (a destructor cannot throw). Regression history: the
//     pre-PR-6 pool let the exception escape workerLoop, which terminated
//     the whole process via std::terminate and left TSan/ASan unable to
//     report anything useful.
//   * Destruction DRAINS: jobs already queued at destruction time all run
//     before the workers join. This is deterministic — a caller that
//     submits N jobs and destroys the pool observes exactly N executions,
//     with no torn state (tests/test_thread_pool_stress.cpp pins it).
//   * A worker may submit() to its own pool (nested submission); wait()
//     accounts for jobs enqueued by other jobs because the barrier
//     predicate is queue-empty AND none in flight. A worker must NOT call wait() on its own pool: its own job
//     counts as in flight, so the barrier could never open (deadlock by
//     construction, not a race).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace shhpass::api {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a job. Jobs may throw: a throwing job never poisons the
  /// pool; the first exception is rethrown from the next wait() (see the
  /// threading contract above).
  void submit(std::function<void()> job);

  /// Block until every submitted job (including jobs submitted by jobs)
  /// has finished. Rethrows the first exception any job threw since the
  /// last wait(); the pool itself stays fully usable afterwards. Must not
  /// be called from a worker of this pool.
  void wait();

  /// Total jobs that finished running (including ones that threw) over
  /// the pool's lifetime. Monotonic statistic; relaxed memory order.
  std::size_t jobsExecuted() const {
    return jobsExecuted_.load(std::memory_order_relaxed);
  }

 private:
  void workerLoop();

  std::mutex mu_;
  std::condition_variable jobReady_;
  std::condition_variable allDone_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t inFlight_ = 0;            // guarded by mu_
  bool stopping_ = false;               // guarded by mu_
  std::exception_ptr firstError_;       // guarded by mu_
  std::atomic<std::size_t> jobsExecuted_{0};
};

}  // namespace shhpass::api
