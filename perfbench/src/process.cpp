#include "process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

void check(int rc, const char* what) {
  if (rc != 0) throw std::runtime_error(std::string(what) + ": " + std::strerror(rc));
}

}  // namespace

Child::Child(const std::vector<std::string>& program, const Redirect& in, const Redirect& out,
             const Redirect& err, bool measureRss) {
  std::vector<std::string> argv = program;
  if (measureRss) {
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0) throw std::runtime_error("cannot locate the runner executable");
    self[n] = '\0';
    static int counter = 0;
    report_ = err.path + ".rusage." + std::to_string(::getpid()) + "." + std::to_string(counter++);
    argv = {self, "--exec-report", report_, "--"};
    argv.insert(argv.end(), program.begin(), program.end());
  }
  posix_spawn_file_actions_t actions;
  check(posix_spawn_file_actions_init(&actions), "posix_spawn_file_actions_init");
  int inPipe[2] = {-1, -1};
  int outPipe[2] = {-1, -1};
  if (in.pipe) {
    if (::pipe2(inPipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_adddup2(&actions, inPipe[0], 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, in.path.c_str(), O_RDONLY, 0);
  }
  if (out.pipe) {
    if (::pipe2(outPipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_adddup2(&actions, outPipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, out.path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  posix_spawn_file_actions_addopen(&actions, 2, err.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  started_ = Clock::now();
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (in.pipe) ::close(inPipe[0]);
  if (out.pipe) ::close(outPipe[1]);
  if (rc != 0) {
    if (in.pipe) ::close(inPipe[1]);
    if (out.pipe) ::close(outPipe[0]);
    check(rc, ("spawn " + argv[0]).c_str());
  }
  stdin_ = inPipe[1];
  stdout_ = outPipe[0];
}

Child::~Child() {
  closeStdin();
  if (stdout_ >= 0) ::close(stdout_);
  if (reaped_ || pid_ <= 0) return;
  // SIGTERM first: a trampoline forwards it, SIGKILL would orphan its child.
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) return;
    ::usleep(10000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
}

void Child::closeStdin() {
  if (stdin_ >= 0) ::close(stdin_);
  stdin_ = -1;
}

void Child::signal(int signal) {
  if (!reaped_ && pid_ > 0) ::kill(pid_, signal);
}

Child::Exit Child::wait() {
  Exit exit;
  if (reaped_) return exit;
  int status = 0;
  struct rusage usage {};
  pid_t r = -1;
  do {
    r = ::wait4(pid_, &status, 0, &usage);
  } while (r < 0 && errno == EINTR);
  reaped_ = true;
  exit.wallSeconds = secondsSince(started_);
  exit.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) exit.code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) exit.code = -WTERMSIG(status);
  if (!report_.empty()) {
    std::ifstream in(report_);
    long maxRssKb = 0;
    if (!(in >> exit.code >> maxRssKb)) throw std::runtime_error("no report from " + report_);
    exit.peakRssMb = static_cast<double>(maxRssKb) / 1024.0;
    std::remove(report_.c_str());
  }
  return exit;
}

namespace {
volatile sig_atomic_t g_child = 0;
void forwardSignal(int signal) {
  if (g_child > 0) ::kill(g_child, signal);
}
}  // namespace

int runTrampoline(int argc, char** argv) {
  if (argc < 5 || std::string(argv[1]) != "--exec-report" || std::string(argv[3]) != "--") {
    return 2;
  }
  struct sigaction action {};
  action.sa_handler = forwardSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, argv[4], nullptr, nullptr, argv + 4, environ) != 0) return 127;
  g_child = pid;
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::ofstream(argv[2]) << code << ' ' << usage.ru_maxrss << '\n';
  return WIFEXITED(status) ? code : 1;
}

TimedLines readTimedLines(Child& child) {
  TimedLines out;
  std::string partial;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t r = ::read(child.stdoutFd(), buffer, sizeof buffer);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) throw std::runtime_error(std::string("read: ") + std::strerror(errno));
    if (r == 0) break;
    const double at = secondsSince(child.started());
    partial.append(buffer, static_cast<std::size_t>(r));
    std::size_t begin = 0;
    for (std::size_t eol; (eol = partial.find('\n', begin)) != std::string::npos; begin = eol + 1) {
      out.lines.emplace_back(partial, begin, eol - begin);
      out.at.push_back(at);
    }
    partial.erase(0, begin);
  }
  if (!partial.empty()) {
    out.lines.push_back(std::move(partial));
    out.at.push_back(secondsSince(child.started()));
  }
  return out;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
