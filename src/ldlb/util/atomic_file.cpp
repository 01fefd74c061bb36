#include "ldlb/util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "ldlb/util/error.hpp"

namespace ldlb {

namespace {

// ldlb-lint: allow(raw-sync): the process-wide injector pointer is swapped
// atomically so a fault plan can be (un)installed while the pool runs; the
// pointed-to plan keeps its own thread-safety contract.
std::atomic<FsFaultInjector*> g_fs_injector{nullptr};

[[noreturn]] void io_fail(const std::string& op, const std::string& path) {
  const int code = errno;
  std::ostringstream os;
  os << op << " failed for '" << path << "': " << std::strerror(code);
  throw IoError(os.str(), path, code);
}

// Splits "dir/file" into the directory part ("." when there is none).
std::string directory_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// Makes the rename itself durable: without this, a crash after rename()
// can lose the directory entry update and resurrect the old file. The
// injector seam lets EnvFaultPlan fail exactly this fsync too.
void fsync_directory(const std::string& dir) {
  if (FsFaultInjector* inj = fs_fault_injector()) inj->before_dir_fsync(dir);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse dir opens
  if (::fsync(fd) != 0) {
    const int code = errno;
    ::close(fd);
    errno = code;
    io_fail("fsync(directory)", dir);
  }
  ::close(fd);
}

// Owns the temp file until the rename succeeds; any throw on the way —
// including one raised by the fault injector — closes and unlinks it.
struct TempFileGuard {
  int fd;
  std::string path;
  bool armed = true;

  ~TempFileGuard() {
    if (!armed) return;
    if (fd >= 0) ::close(fd);
    ::unlink(path.c_str());
  }
};

// Closes an fd on scope exit unless disarmed (fd set to -1).
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

// The injector-aware write loop shared by write_file_atomic and
// append_file_durable: the injector may throw (EIO/ENOSPC) or cap the
// bytes accepted per call (a short write — the remainder retries,
// consulting the injector again).
void write_all(int fd, const std::string& path, const std::string& content,
               FsFaultInjector* inj) {
  const char* data = content.data();
  std::size_t remaining = content.size();
  while (remaining > 0) {
    std::size_t allow = remaining;
    if (inj) {
      allow = inj->before_write(path, remaining);
      if (allow == 0 || allow > remaining) allow = remaining;
    }
    const ssize_t written = ::write(fd, data, allow);
    if (written < 0) {
      if (errno == EINTR) continue;
      io_fail("write", path);
    }
    data += written;
    remaining -= static_cast<std::size_t>(written);
  }
}

}  // namespace

void set_fs_fault_injector(FsFaultInjector* injector) {
  g_fs_injector.store(injector, std::memory_order_release);
}

FsFaultInjector* fs_fault_injector() {
  return g_fs_injector.load(std::memory_order_acquire);
}

void write_file_atomic(const std::string& path, const std::string& content) {
  // mkstemp wants a mutable template in the destination directory, so the
  // final rename() never crosses a filesystem boundary.
  std::vector<char> tmpl(path.begin(), path.end());
  const char suffix[] = ".tmp.XXXXXX";
  tmpl.insert(tmpl.end(), suffix, suffix + sizeof(suffix));  // keeps the NUL

  const int fd = ::mkstemp(tmpl.data());
  if (fd < 0) io_fail("mkstemp", path);
  TempFileGuard tmp{fd, std::string{tmpl.data()}};
  FsFaultInjector* inj = fs_fault_injector();

  write_all(fd, tmp.path, content, inj);
  if (inj) inj->before_fsync(tmp.path);
  if (::fsync(fd) != 0) io_fail("fsync", tmp.path);
  if (::close(fd) != 0) {
    tmp.fd = -1;  // already closed; the guard must not close it again
    io_fail("close", tmp.path);
  }
  tmp.fd = -1;
  if (inj) inj->before_rename(tmp.path, path);
  if (::rename(tmp.path.c_str(), path.c_str()) != 0) io_fail("rename", path);
  tmp.armed = false;  // the temp name is gone; nothing left to clean up
  // Make the rename itself durable (see fsync_directory).
  fsync_directory(directory_of(path));
}

void append_file_durable(const std::string& path, const std::string& content,
                         bool sync_directory) {
  FsFaultInjector* inj = fs_fault_injector();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) io_fail("open(append)", path);
  FdGuard guard{fd};
  write_all(fd, path, content, inj);
  if (inj) inj->before_fsync(path);
  if (::fsync(fd) != 0) io_fail("fsync", path);
  if (::close(fd) != 0) {
    guard.fd = -1;
    io_fail("close", path);
  }
  guard.fd = -1;
  // Make a freshly created log file's dirent durable, mirroring the
  // post-rename directory fsync of write_file_atomic.
  if (sync_directory) fsync_directory(directory_of(path));
}

void truncate_file(const std::string& path, std::uint64_t size) {
  FsFaultInjector* inj = fs_fault_injector();
  if (inj) inj->before_truncate(path, size);
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) io_fail("open(truncate)", path);
  FdGuard guard{fd};
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    io_fail("ftruncate", path);
  }
  if (::fsync(fd) != 0) io_fail("fsync", path);
  if (::close(fd) != 0) {
    guard.fd = -1;
    io_fail("close", path);
  }
  guard.fd = -1;
}

std::optional<std::uint64_t> file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return std::nullopt;
    io_fail("stat", path);
  }
  return static_cast<std::uint64_t>(st.st_size);
}

std::string read_file(const std::string& path) {
  if (FsFaultInjector* inj = fs_fault_injector()) inj->before_read(path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_fail("open", path);
  FdGuard guard{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0) io_fail("fstat", path);
  // Presized from fstat and read in place. Reading then goes on to end of
  // file through a small probe buffer, so a file that grew meanwhile is
  // still read whole without the common case paying for a reallocation.
  std::string content(static_cast<std::size_t>(std::max<off_t>(st.st_size, 0)),
                      '\0');
  std::size_t filled = 0;
  char probe[4096] = {};
  for (;;) {
    const bool in_place = filled < content.size();
    char* dst = in_place ? content.data() + filled : probe;
    const std::size_t want = in_place ? content.size() - filled : sizeof probe;
    const ssize_t got = ::read(fd, dst, want);
    if (got < 0) {
      if (errno == EINTR) continue;
      io_fail("read", path);
    }
    if (got == 0) break;
    if (!in_place) content.append(probe, static_cast<std::size_t>(got));
    filled += static_cast<std::size_t>(got);
  }
  content.resize(filled);
  return content;
}

}  // namespace ldlb
