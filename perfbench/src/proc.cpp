#include "proc.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace perfbench {

std::string ServerProcess::Start(const std::string& binary,
                                 const std::string& root_dir) {
  int fds[2];
  if (::pipe(fds) != 0) return "pipe failed";
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return "fork failed";
  }
  if (pid == 0) {
    // Child: die with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const char* argv[] = {binary.c_str(), "--port", "0", "--root",
                          root_dir.c_str(), nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];

  // Wait for "rabitq_server listening on HOST:PORT".
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return "server did not report its port in time";
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return "server exited before listening";
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t at = line.find("listening on ");
  const std::size_t colon = line.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos) {
    return "unexpected server banner: " + line;
  }
  port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  return port_ == 0 ? "server reported port 0" : "";
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

namespace {

/// Field `field` ("VmHWM:", "VmRSS:") of /proc/<pid>/status in MiB.
double StatusMb(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return -1.0;
}

}  // namespace

double PeakRssMb(pid_t pid) { return StatusMb(pid, "VmHWM:"); }

double ResidentMb(pid_t pid) { return StatusMb(pid, "VmRSS:"); }

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
