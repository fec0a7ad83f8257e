// Child processes of the benchmark: the pipesched binary under test. Every
// child is waited for, and its peak RSS comes from wait4's rusage.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Where a child's standard stream goes: a file path (read for stdin,
/// truncated for stdout/stderr), or a pipe the parent keeps the other end of.
struct Redirect {
  std::string path = "/dev/null";
  bool pipe = false;
};

class Child {
 public:
  /// With `measureRss`, the child is started through a trampoline (this
  /// executable in exec-report mode, see runTrampoline): a process started
  /// straight from the runner would report the runner's own resident set in
  /// ru_maxrss, which counts the pre-exec address space.
  Child(const std::vector<std::string>& argv, const Redirect& in, const Redirect& out,
        const Redirect& err, bool measureRss = false);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// Parent ends of piped streams (-1 when not piped). The caller may close
  /// stdinFd early through closeStdin().
  [[nodiscard]] int stdinFd() const noexcept { return stdin_; }
  [[nodiscard]] int stdoutFd() const noexcept { return stdout_; }
  void closeStdin();
  /// When the child was spawned.
  [[nodiscard]] Clock::time_point started() const noexcept { return started_; }

  /// Sends `signal` to the child (no-op once reaped).
  void signal(int signal);

  struct Exit {
    int code = -1;          ///< exit status, or -signal when killed
    double peakRssMb = 0;   ///< ru_maxrss
    double wallSeconds = 0; ///< spawn to reap
  };
  /// Blocks until the child exits (only once).
  Exit wait();

 private:
  pid_t pid_ = -1;
  std::string report_;  ///< trampoline's report file, empty without one
  int stdin_ = -1;
  int stdout_ = -1;
  Clock::time_point started_;
  bool reaped_ = false;
};

/// A child's output lines, each with the time it was read from the pipe in
/// seconds since the child was spawned.
struct TimedLines {
  std::vector<std::string> lines;
  std::vector<double> at;
};

/// Reads the child's piped stdout until end of file. Every line is stamped
/// with the time of the read that completed it.
[[nodiscard]] TimedLines readTimedLines(Child& child);

/// Exec-report mode: `argv` is {"--exec-report", REPORT, "--", program,
/// args...}. Runs the program with the inherited standard streams, forwards
/// SIGTERM/SIGINT to it, and writes "<exit code> <ru_maxrss KiB>" to REPORT.
/// Returns the program's exit code.
int runTrampoline(int argc, char** argv);

/// Reads a whole file; throws when it cannot be opened.
[[nodiscard]] std::string readFile(const std::string& path);
void writeFile(const std::string& path, const std::string& content);

}  // namespace perfbench
