#include "child.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>

namespace certbench {

namespace {

void write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

ChildResult run_in_child(const std::function<std::string()>& body,
                         unsigned timeout_s) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  // Buffered parent output would otherwise be flushed by both processes.
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    // A half never outlives the harness, even when the harness is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::alarm(timeout_s);
    int code = 0;
    std::string out;
    try {
      out = body();
    } catch (const std::exception& e) {
      out = std::string("error ") + e.what() + "\n";
      code = 1;
    }
    write_all(fds[1], out);
    ::close(fds[1]);
    // _exit: skip destructors (the half's state dies with the process) and
    // never flush stdio buffers inherited from the parent.
    ::_exit(code);
  }

  ::close(fds[1]);
  ChildResult result;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      result.output.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);

  int status = 0;
  struct rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  result.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) {
    result.ok = WEXITSTATUS(status) == 0;
    result.status = "exit " + std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    result.status = "signal " + std::to_string(WTERMSIG(status));
  }
  return result;
}

}  // namespace certbench
