// One half-job per process. Every CLI invocation of certificate_tool starts
// cold, and peak RSS must be measured per half rather than as a process
// high-water mark, so each half runs in a forked child: its ru_maxrss (read
// from wait4) covers that half alone. The parent never touches the engine's
// thread pool or ball store, so each child sizes a fresh pool of its own.
#pragma once

#include <functional>
#include <string>

namespace certbench {

struct ChildResult {
  bool ok = false;         ///< exited with status 0
  std::string status;      ///< "exit <n>" or "signal <n>" when !ok
  std::string output;      ///< everything the child's body returned
  double max_rss_mb = 0;   ///< peak resident set of the child, MiB
};

/// Runs `body` in a forked child and waits for it. The child's return value
/// travels back through a pipe; an exception becomes a non-zero exit with
/// "error <what>" as output. A child still running after `timeout_s`
/// seconds is killed by SIGALRM.
ChildResult run_in_child(const std::function<std::string()>& body,
                         unsigned timeout_s);

}  // namespace certbench
