// Small fixed-size thread pool with a blocking ParallelFor (used by the index
// phase: kmeans assignment, encoding, ground-truth computation) and a
// fire-and-forget Submit plus WorkerIndex (used by the query-serving engine,
// whose tasks complete their own work and index per-worker scratch).

#ifndef RABITQ_UTIL_THREAD_POOL_H_
#define RABITQ_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rabitq {

/// Fixed pool of worker threads executing submitted closures.
class ThreadPool {
 public:
  /// `num_threads` == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Returned by WorkerIndex() on a thread that is not one of this pool's
  /// workers.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Index in [0, num_threads()) of the calling thread within this pool, or
  /// kNotAWorker. Lets a task pick per-worker scratch: a worker runs one
  /// task at a time, so scratch indexed by it is never shared.
  std::size_t WorkerIndex() const;

  /// Enqueues a task for asynchronous execution. The task must not throw:
  /// an escaping exception terminates the program.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  /// Splits [0, n) into contiguous chunks and runs
  /// `fn(chunk_begin, chunk_end)` across the pool; blocks until done.
  /// Runs inline when n is small or the pool has a single thread.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn,
                   std::size_t min_chunk = 256);

 private:
  void WorkerLoop(std::size_t index);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Process-wide pool for index-phase parallelism.
ThreadPool& GlobalThreadPool();

}  // namespace rabitq

#endif  // RABITQ_UTIL_THREAD_POOL_H_
