#include "core/threadpool.hpp"

#include "core/envknobs.hpp"

namespace amsyn::core {

ThreadPool::ThreadPool(std::size_t workers) {
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { while (runOne(/*wait=*/true)) {} });
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lk(mutex_);
  stop_ = true;
  lk.unlock();
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  while (tryRunOneTask()) {}  // workers drain the queue; a zero-worker pool has none
}

std::size_t ThreadPool::configuredThreads() {
  if (const std::size_t n = envknobs::threads(); n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* o = override_.load(std::memory_order_acquire)) return *o;
  static ThreadPool pool(configuredThreads());
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  std::unique_lock<std::mutex> lk(mutex_);
  tasks_.push_back(std::move(task));
  lk.unlock();
  cv_.notify_one();
}

bool ThreadPool::runOne(bool wait) {
  std::unique_lock<std::mutex> lk(mutex_);
  if (wait) cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
  if (tasks_.empty()) return false;
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop_front();
  lk.unlock();
  task();
  return true;
}

}  // namespace amsyn::core
