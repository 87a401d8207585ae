// Deterministic data-parallel loops over the shared thread pool
// (core/threadpool.hpp).  Work is assigned by index, results land by index,
// and any randomness inside the body must come from a per-index RNG stream
// (num::Rng::split), so every helper here produces bit-identical results at
// any pool width, zero workers included.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "core/context.hpp"
#include "core/threadpool.hpp"

namespace amsyn::core {

/// Run fn(i) for i in [0, n) across the pool and block until every index has
/// finished.  The calling thread participates (on a zero-worker pool it runs
/// every index), and while waiting for stragglers it drains other queued
/// tasks, so nesting parallelFor inside pool tasks cannot deadlock.  The
/// first exception thrown by any index is rethrown here; remaining indices
/// are abandoned (each runs at most once).
template <typename Fn>
void parallelFor(std::size_t n, Fn&& fn) {
  if (n == 0) return;
  ThreadPool& pool = ThreadPool::global();

  struct State {
    std::atomic<std::size_t> next{0};     ///< next unclaimed index
    std::atomic<std::size_t> helpers{0};  ///< helper tasks not yet finished
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto st = std::make_shared<State>();

  // Shared by the caller and every helper task.  Captures fn by reference:
  // safe because this function does not return until helpers_ hits zero.
  auto runIndices = [st, &fn, n] {
    std::size_t i;
    while (!st->failed.load(std::memory_order_relaxed) &&
           (i = st->next.fetch_add(1)) < n) {
      try {
        fn(i);
      } catch (...) {
        bool expected = false;
        if (st->failed.compare_exchange_strong(expected, true)) {
          std::lock_guard<std::mutex> lk(st->mutex);
          st->error = std::current_exception();
        }
      }
    }
  };

  // Helper tasks run under the submitting thread's execution context: a
  // job's parallel sections stay inside that job's scope even when its
  // indices execute on shared pool workers (or in another tenant's barrier
  // wait below).
  ExecutionContext& ctx = ExecutionContext::current();

  const std::size_t helperCount = std::min(pool.threadCount(), n - 1);
  st->helpers.store(helperCount);
  for (std::size_t h = 0; h < helperCount; ++h) {
    pool.submit([st, runIndices, &ctx] {
      ContextScope scope(ctx);
      runIndices();
      if (st->helpers.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lk(st->mutex);
        st->cv.notify_all();
      }
    });
  }

  runIndices();

  // Barrier: all helper closures reference fn and the caller's stack, so
  // they must finish before we return.  Helping the pool here keeps nested
  // parallel sections live even when every worker is blocked at a barrier.
  std::unique_lock<std::mutex> lk(st->mutex);
  while (st->helpers.load() != 0) {
    lk.unlock();
    const bool ranSomething = pool.tryRunOneTask();
    lk.lock();
    if (!ranSomething)
      st->cv.wait(lk, [&] { return st->helpers.load() == 0; });
  }
  if (st->failed.load()) std::rethrow_exception(st->error);
}

/// parallelFor that collects return values: out[i] = fn(i).  The result type
/// must be default-constructible (it is assigned into a presized vector).
template <typename Fn>
auto parallelMap(std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(n);
  parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// parallelFor in per-index error-capture mode: fn(i) runs for EVERY index,
/// and an exception thrown by index i is stored in the returned vector at
/// slot i instead of aborting its siblings.  Use at evaluation boundaries
/// (population scoring, corner fan-out) where one poisoned candidate must
/// not cost the batch: indices that completed keep results bit-identical to
/// a failure-free run.  errs[i] is null for indices that completed normally.
template <typename Fn>
std::vector<std::exception_ptr> parallelForCaptured(std::size_t n, Fn&& fn) {
  std::vector<std::exception_ptr> errs(n);
  parallelFor(n, [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errs[i] = std::current_exception();  // each index written once: no race
    }
  });
  return errs;
}

/// RAII global-pool override for tests and benchmarks: pins the pool seen by
/// parallelFor/parallelMap to `workers` workers for the scope's lifetime.
/// ScopedThreadPool(0) is the serial mode: every index runs on the caller.
class ScopedThreadPool {
 public:
  explicit ScopedThreadPool(std::size_t workers) : pool_(workers) {
    previous_ = ThreadPool::setGlobal(&pool_);
  }
  ~ScopedThreadPool() { ThreadPool::setGlobal(previous_); }

  ScopedThreadPool(const ScopedThreadPool&) = delete;
  ScopedThreadPool& operator=(const ScopedThreadPool&) = delete;

  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  ThreadPool* previous_ = nullptr;
};

}  // namespace amsyn::core
