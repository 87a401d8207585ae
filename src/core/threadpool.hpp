// The thread pool behind amsyn's parallel loops: corner search (4x-10x the CPU
// of nominal design, paper ref [31]), topology selection, library builds, batches.
//
// A fixed set of workers serves one mutex-guarded FIFO task queue; the pool's
// width is its worker count, down to zero.  parallelFor (core/parallel.hpp)
// balances load itself and runs indices on its calling thread too, so a loop
// uses up to width + 1 threads and a zero-worker pool is the serial mode.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace amsyn::core {

class ThreadPool {
 public:
  /// Start `workers` threads; with 0, tasks run only in tryRunOneTask.
  explicit ThreadPool(std::size_t workers);
  /// Runs every task still queued: none is ever dropped.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }
  void submit(std::function<void()> task);

  /// Run the oldest queued task on the calling thread; false if none is
  /// queued.  Barriers call this while they wait, so nested loops cannot deadlock.
  bool tryRunOneTask() { return runOne(/*wait=*/false); }

  /// Process-wide pool, built on first use with configuredThreads() workers.
  static ThreadPool& global();

  /// AMSYN_THREADS clamped to [1, 512], else hardware_concurrency(), else 1.
  static std::size_t configuredThreads();

 private:
  friend class ScopedThreadPool;
  /// Make global() return `pool` (nullptr: the default) and return the
  /// previous override.  Not safe while parallel work is in flight.
  static ThreadPool* setGlobal(ThreadPool* pool) {
    return override_.exchange(pool, std::memory_order_acq_rel);
  }

  /// Take the oldest task and run it.  With `wait`, first block until a task
  /// is queued or the pool stops.  False when no task was run.
  bool runOne(bool wait);

  std::mutex mutex_;  ///< guards tasks_ and stop_
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  static inline std::atomic<ThreadPool*> override_{nullptr};
};

}  // namespace amsyn::core
