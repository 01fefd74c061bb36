// The durable-store seam of the resumable adversary.
//
// Two on-disk shapes hold a partial certificate chain today: the rewrite-
// whole-file snapshot (recover/snapshot_store.hpp, PR 2) and the
// append-only streaming certificate log (recover/cert_log.hpp). The
// resumable engine (resumable_adversary.hpp) only needs three capabilities
// from either — load the longest trusted prefix, durably checkpoint the
// chain after each level, start over — so it programs against this
// interface and a run can be pointed at either store without recompiling
// callers.
#pragma once

#include <string>

#include "ldlb/core/certificate.hpp"

namespace ldlb {

/// What a store's load() salvaged and why it stopped where it did.
struct RecoveryReport {
  std::string path;
  bool file_found = false;  ///< store file existed
  bool complete = false;    ///< header, every record and the trailer valid
  int levels_loaded = 0;    ///< records salvaged (the longest valid prefix)
  std::string drop_reason;  ///< why the tail was dropped ("" when complete)
  int drop_line = 0;        ///< 1-based line of the first defect (0 if none)

  /// One-line human-readable summary.
  [[nodiscard]] std::string to_string() const;
};

/// A durable home for one adversary run's partial chain.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  [[nodiscard]] virtual const std::string& path() const = 0;
  [[nodiscard]] virtual bool exists() const = 0;

  /// Loads the longest valid prefix; never throws on damaged or missing
  /// content (see RecoveryReport), only on environmental IO failure. The
  /// returned chain's delta / algorithm_name are zero/empty when the header
  /// itself could not be salvaged.
  [[nodiscard]] virtual LowerBoundCertificate load(
      RecoveryReport* report = nullptr) = 0;

  /// Durably makes the store equal `chain`. Called once per freshly
  /// certified level; the engine never mutates previously checkpointed
  /// levels between calls, only appends to the chain or — after a
  /// revalidation reject — hands over a chain whose trusted prefix is
  /// byte-identical to what the same store loaded. Incremental stores
  /// (the certificate log) rely on that contract to append O(one level)
  /// per call instead of rewriting the file.
  virtual void checkpoint(const LowerBoundCertificate& chain) = 0;

  /// Deletes the store's file if present.
  virtual void remove() = 0;
};

}  // namespace ldlb
