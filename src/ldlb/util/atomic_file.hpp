// Crash-safe file replacement.
//
// Long adversary runs checkpoint their partial certificate chains to disk;
// a crash in the middle of a plain `ofstream` write would leave a torn file
// and lose the whole run. `write_file_atomic` follows the classic POSIX
// recipe instead — write to a unique temp file in the same directory,
// fsync it, rename() it over the destination, fsync the parent directory —
// so at every instant the destination path holds either the complete old
// content or the complete new content, never a mixture. The final directory
// fsync matters: rename() only updates the directory entry, and without
// flushing the directory a crash can lose the rename itself, resurrecting
// the old file.
//
// All certificate-to-file paths in the repo (`write_certificate_file`, the
// certificate tool, a certificate log's first checkpoint) go through this
// helper.
// The append-only certificate log (recover/cert_log.hpp) has a different
// durability shape — records accrete, they are not replaced — so this file
// also provides its two primitives: `append_file_durable` (append + fsync,
// where a crash mid-call leaves a *torn tail* the log's open path detects
// and truncates away) and `truncate_file` (the torn-tail repair itself).
//
// Fault-injection seam: every individual filesystem operation
// (write / fsync of the temp file / rename / fsync of the parent directory,
// plus the append / truncate / read paths of the certificate log)
// first consults the process-wide FsFaultInjector, if one is installed.
// fault/env_fault.hpp's EnvFaultPlan implements the interface to fail the
// nth such operation with EIO / ENOSPC or to force a short write, which is
// how the env-fault and chaos tests prove that a checkpointed run survives
// a hostile filesystem. With no injector installed, each operation pays one
// relaxed atomic load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ldlb {

/// Interception points for the filesystem operations of write_file_atomic.
/// Every hook may throw IoError to model that operation failing; the
/// default implementations are transparent no-ops.
class FsFaultInjector {
 public:
  virtual ~FsFaultInjector() = default;

  /// Called before writing `size` bytes to the temp file. Return the number
  /// of bytes the "filesystem" will accept in this call — a value < size
  /// models a short write (the remainder is retried, consulting the
  /// injector again). Returning 0 or more than `size` means `size`.
  virtual std::size_t before_write(const std::string& /*path*/,
                                   std::size_t size) {
    return size;
  }

  /// Called before fsync of the temp file's data.
  virtual void before_fsync(const std::string& /*path*/) {}

  /// Called before the rename over the destination.
  virtual void before_rename(const std::string& /*from*/,
                             const std::string& /*to*/) {}

  /// Called before the durability fsync of the destination's parent
  /// directory (the rename is already visible when this fires).
  virtual void before_dir_fsync(const std::string& /*dir*/) {}

  /// Called before truncate_file shrinks `path` to `size` bytes (the
  /// certificate log's torn-tail repair).
  virtual void before_truncate(const std::string& /*path*/,
                               std::uint64_t /*size*/) {}

  /// Called before a read batch: once per read_file call and once per
  /// record the certificate-log scanner consumes, so a plan can fail the
  /// nth *record* of a streaming validation, not just the nth file.
  virtual void before_read(const std::string& /*path*/) {}
};

/// Installs `injector` as the process-wide filesystem fault injector for
/// every subsequent write_file_atomic call; nullptr uninstalls. Not owned.
/// Test machinery — swap only while no write is in flight.
void set_fs_fault_injector(FsFaultInjector* injector);

/// The currently installed injector (nullptr when none).
[[nodiscard]] FsFaultInjector* fs_fault_injector();

/// Atomically replaces the contents of `path` with `content`. Throws
/// IoError if any step fails; on failure before the rename the destination
/// is untouched and the temp file is cleaned up on a best-effort basis. An
/// IoError from the final directory fsync means the new content is in place
/// but its durability is unconfirmed — callers that must be crash-safe
/// should treat it as a failed checkpoint and re-save.
void write_file_atomic(const std::string& path, const std::string& content);

/// Appends `content` to `path` (creating an empty file first when absent)
/// and fsyncs it — the durable-append primitive of the certificate log.
/// Unlike write_file_atomic there is deliberately no temp-and-rename: an
/// append that crashes (or is failed by the injector) part-way leaves the
/// previous bytes intact plus a *torn tail*, exactly the damage class the
/// log's open path classifies as kTornTail and truncates away. When
/// `sync_directory` is set the parent directory is fsynced too (pass it for
/// the append that creates the file, so the dirent survives a crash).
/// Throws IoError.
void append_file_durable(const std::string& path, const std::string& content,
                         bool sync_directory = false);

/// Truncates `path` to exactly `size` bytes and fsyncs (the certificate
/// log's torn-tail repair). Throws IoError.
void truncate_file(const std::string& path, std::uint64_t size);

/// Size of `path` in bytes; nullopt when it does not exist.
[[nodiscard]] std::optional<std::uint64_t> file_size(const std::string& path);

/// Reads a whole file into a string. Throws IoError when the file cannot
/// be opened or read.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace ldlb
