// Test helper: an IdFilter predicate that blocks every caller until Open().
// A query submitted with it parks the engine worker running its scan, which
// lets a test wedge an engine deterministically (one blocker per pool
// worker) or hold one query in flight while it checks what else still
// makes progress.

#ifndef RABITQ_TESTS_GATE_H_
#define RABITQ_TESTS_GATE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace rabitq {

// While the gate is closed a blocked worker enters once, so `entered`
// counts parked workers. Thread-safe (the predicate contract).
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<std::size_t> entered{0};

  static bool BlockUntilOpen(void* context, std::uint32_t /*id*/) {
    Gate* gate = static_cast<Gate*>(context);
    gate->entered.fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock<std::mutex> lock(gate->m);
    gate->cv.wait(lock, [gate] { return gate->open; });
    return true;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }

  // Deadline-bounded, so a wedge that never forms fails instead of hanging.
  bool AwaitEntered(std::size_t workers) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (entered.load(std::memory_order_acquire) < workers) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }
};

// Opens the gate when the scope ends, so a failed assertion cannot leave
// workers parked (and the engine's drain waiting on them forever). Declare
// it after the engine or server; declare the Gate before them.
class OpenGateOnExit {
 public:
  explicit OpenGateOnExit(Gate* gate) : gate_(gate) {}
  ~OpenGateOnExit() { gate_->Open(); }
  OpenGateOnExit(const OpenGateOnExit&) = delete;
  OpenGateOnExit& operator=(const OpenGateOnExit&) = delete;

 private:
  Gate* gate_;
};

}  // namespace rabitq

#endif  // RABITQ_TESTS_GATE_H_
