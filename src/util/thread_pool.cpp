#include "util/thread_pool.h"

#include <algorithm>

namespace rabitq {

namespace {
// Set once at worker start: the owning pool and the worker's index in it.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = ThreadPool::kNotAWorker;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_chunk) {
  if (n == 0) return;
  const std::size_t threads = num_threads();
  if (threads <= 1 || n <= min_chunk) {
    fn(0, n);
    return;
  }
  const std::size_t chunks = std::min(threads * 4, (n + min_chunk - 1) / min_chunk);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    Submit([&fn, begin, end] { fn(begin, end); });
  }
  Wait();
}

std::size_t ThreadPool::WorkerIndex() const {
  return tls_pool == this ? tls_worker : kNotAWorker;
}

void ThreadPool::WorkerLoop(std::size_t index) {
  tls_pool = this;
  tls_worker = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace rabitq
