// Reader/writer lock for the serving engine's per-shard coordination, with
// two properties std::shared_mutex does not promise:
//
//   * Phase-fair: a writer that arrives while readers hold the lock stops
//     NEW readers from entering, so a stream of overlapping reader batches
//     cannot starve it (glibc's default rwlock prefers readers). Readers that
//     were already waiting when a writer took the lock enter as soon as that
//     writer leaves, even if another writer is queued, so writers cannot
//     starve readers either.
//   * Shared ownership is not tied to a thread: unlock_shared() may run on a
//     different thread than the matching lock_shared(). The engine takes a
//     batch's read locks on the dispatching thread and drops them on the pool
//     worker that finishes the batch's last query.
//
// Meets the SharedMutex requirements, so std::shared_lock / std::unique_lock
// work unchanged. Not recursive: a thread that holds a shared lock and asks
// for it again can deadlock behind a waiting writer.

#ifndef RABITQ_UTIL_SHARED_MUTEX_H_
#define RABITQ_UTIL_SHARED_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace rabitq {

class FairSharedMutex {
 public:
  FairSharedMutex() = default;
  FairSharedMutex(const FairSharedMutex&) = delete;
  FairSharedMutex& operator=(const FairSharedMutex&) = delete;

  void lock() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++writers_waiting_;
    writer_cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }

  bool try_lock() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_ || readers_ != 0) return false;
    writer_ = true;
    return true;
  }

  void unlock() {
    std::lock_guard<std::mutex> lock(mutex_);
    writer_ = false;
    ++write_phase_;
    // Notified under the lock: a waiter may destroy the mutex as soon as it
    // can observe the release.
    reader_cv_.notify_all();
    writer_cv_.notify_one();
  }

  void lock_shared() {
    std::unique_lock<std::mutex> lock(mutex_);
    // A reader that finds a writer inside (or queued) waits for the next
    // write phase to end; it is then admitted ahead of any writer that
    // queued meanwhile.
    const std::uint64_t phase = write_phase_;
    reader_cv_.wait(lock, [this, phase] {
      return !writer_ && (writers_waiting_ == 0 || write_phase_ != phase);
    });
    ++readers_;
  }

  bool try_lock_shared() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_ || writers_waiting_ != 0) return false;
    ++readers_;
    return true;
  }

  void unlock_shared() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--readers_ == 0 && writers_waiting_ != 0) writer_cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable reader_cv_;
  std::condition_variable writer_cv_;
  std::size_t readers_ = 0;
  std::size_t writers_waiting_ = 0;
  std::uint64_t write_phase_ = 0;  // completed write critical sections
  bool writer_ = false;
};

}  // namespace rabitq

#endif  // RABITQ_UTIL_SHARED_MUTEX_H_
