// The program under test as a child process: starts rabitq_server at its
// shipped defaults (ephemeral port, snapshot root inside the benchmark's
// work directory), reads its peak resident set and stops it.

#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary --port 0 --root root_dir` and waits for its
  /// "listening on" line. Returns an error message, empty on success.
  std::string Start(const std::string& binary, const std::string& root_dir);

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Asks the server to exit (SIGTERM, then SIGKILL after a grace period)
  /// and reaps it. Idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;  // read end of the child's stdout pipe
  std::uint16_t port_ = 0;
};

/// VmHWM (peak resident set) of `pid` in MiB, read from /proc; -1 if absent.
double PeakRssMb(pid_t pid);

/// VmRSS (current resident set) of `pid` in MiB; -1 if absent.
double ResidentMb(pid_t pid);

/// Total bytes of the regular files under `dir` (recursive).
std::uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
