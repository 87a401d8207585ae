// Shared work-stealing thread pool behind every parallel evaluation loop in
// amsyn (corner search, genetic topology selection, the generated-library
// build, batched flows).  The paper's manufacturability section prices
// worst-case corner search at 4x-10x the CPU of nominal design [31]; those
// cycles are embarrassingly parallel, and this pool is where they go.
//
// Design: each worker owns a deque.  Tasks submitted from a worker thread
// land on that worker's own deque and are popped LIFO (cache-warm); other
// workers steal FIFO from the cold end; external submissions go through a
// shared injection queue.  Blocking helpers (core/parallel.hpp barriers) run
// queued tasks while they wait, so nested parallel sections cannot deadlock
// even on a single-thread pool.
//
// Pool size: AMSYN_THREADS environment variable, else hardware_concurrency.
// Determinism is the caller's contract: parallel loops assign work by index
// and derive per-task RNG streams from (seed, index) (numeric/rng.hpp), so
// results are bit-identical at any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace amsyn::core {

class ThreadPool {
 public:
  /// threads == 0: use configuredThreads() (AMSYN_THREADS env var, else
  /// hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Enqueue fire-and-forget work.  Called from one of this pool's workers,
  /// the task goes to that worker's own deque; otherwise to the injection
  /// queue.  Tasks still queued when the pool is destroyed are executed
  /// during destruction, never dropped.
  void submit(std::function<void()> task);

  /// Run one queued task on the calling thread, if any is available
  /// anywhere (own deque, injection queue, or stolen).  Returns false when
  /// every queue is empty.  Barriers call this in their wait loop.
  bool tryRunOneTask();

  /// Process-wide pool, lazily constructed at configuredThreads() size.
  static ThreadPool& global();

  /// Install `pool` as the pool returned by global() (tests pin thread
  /// counts this way); nullptr restores the default.  Returns the previous
  /// override.  Not safe to call while parallel work is in flight.
  static ThreadPool* setGlobal(ThreadPool* pool);

  /// Thread count requested by the environment: AMSYN_THREADS clamped to
  /// [1, 512], else std::thread::hardware_concurrency(), else 1.
  static std::size_t configuredThreads();

 private:
  struct TaskQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void workerLoop(std::size_t self);
  /// Pop from this worker's own deque (LIFO hot end).
  bool popLocal(std::size_t self, std::function<void()>& out);
  /// Pop from the injection queue or steal from another worker (FIFO cold
  /// end).  `self` == threadCount() means "external thread, steal anywhere".
  bool popShared(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<TaskQueue>> local_;
  TaskQueue inject_;
  std::mutex sleepMutex_;
  std::condition_variable sleepCv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> queued_{0};  ///< submitted, not yet dequeued
  std::vector<std::thread> workers_;
};

}  // namespace amsyn::core
