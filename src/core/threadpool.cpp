#include "core/threadpool.hpp"

#include <string>

#include "core/envknobs.hpp"

namespace amsyn::core {

namespace {

// Identity of the current thread within a pool, set by workerLoop.  A thread
// belongs to at most one pool for its whole lifetime.
thread_local ThreadPool* tlPool = nullptr;
thread_local std::size_t tlIndex = 0;

std::atomic<ThreadPool*> gOverride{nullptr};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = configuredThreads();
  local_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) local_.push_back(std::make_unique<TaskQueue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(sleepMutex_);
    stop_.store(true);
  }
  sleepCv_.notify_all();
  for (auto& w : workers_) w.join();
  // Workers drain their queues before exiting, but a task submitted by the
  // very last task to run could still be queued: run stragglers here.
  while (tryRunOneTask()) {
  }
}

std::size_t ThreadPool::configuredThreads() {
  if (const std::size_t n = envknobs::threads(); n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* o = gOverride.load(std::memory_order_acquire)) return *o;
  static ThreadPool pool;
  return pool;
}

ThreadPool* ThreadPool::setGlobal(ThreadPool* pool) {
  return gOverride.exchange(pool, std::memory_order_acq_rel);
}

void ThreadPool::submit(std::function<void()> task) {
  {
    // Increment before pushing, under sleepMutex_, so (a) a worker between
    // its predicate check and its cv block cannot miss the wake-up and (b) a
    // concurrent pop can never drive the counter below zero.
    std::lock_guard<std::mutex> lk(sleepMutex_);
    queued_.fetch_add(1);
  }
  TaskQueue& q = (tlPool == this) ? *local_[tlIndex] : inject_;
  {
    std::lock_guard<std::mutex> lk(q.mutex);
    q.tasks.push_back(std::move(task));
  }
  sleepCv_.notify_one();
}

bool ThreadPool::popLocal(std::size_t self, std::function<void()>& out) {
  TaskQueue& q = *local_[self];
  std::lock_guard<std::mutex> lk(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // LIFO: most recently pushed, cache-warm
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::popShared(std::size_t self, std::function<void()>& out) {
  {
    std::lock_guard<std::mutex> lk(inject_.mutex);
    if (!inject_.tasks.empty()) {
      out = std::move(inject_.tasks.front());
      inject_.tasks.pop_front();
      return true;
    }
  }
  const std::size_t n = local_.size();
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t victim = (self + k) % n;
    if (victim == self) continue;
    TaskQueue& q = *local_[victim];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());  // FIFO cold end: oldest task
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

bool ThreadPool::tryRunOneTask() {
  std::function<void()> task;
  const bool worker = (tlPool == this);
  const std::size_t self = worker ? tlIndex : local_.size();
  if ((worker && popLocal(self, task)) || popShared(self, task)) {
    queued_.fetch_sub(1);
    task();
    return true;
  }
  return false;
}

void ThreadPool::workerLoop(std::size_t self) {
  tlPool = this;
  tlIndex = self;
  std::function<void()> task;
  while (true) {
    if (popLocal(self, task) || popShared(self, task)) {
      queued_.fetch_sub(1);
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(sleepMutex_);
    if (stop_.load() && queued_.load() == 0) return;
    sleepCv_.wait(lk, [&] { return stop_.load() || queued_.load() > 0; });
    if (stop_.load() && queued_.load() == 0) return;
  }
}

}  // namespace amsyn::core
