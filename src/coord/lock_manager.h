// Distributed write locks on the znode tree (ZK lock recipe with ephemeral
// nodes). MVOCC validation takes the locks of a transaction's whole write
// set, plus the commit timestamp, in one coordination multi (paper §3.7.1,
// "Validation with Write Locks"): all or none, so no transaction ever holds
// some locks while waiting for others.

#ifndef LOGBASE_COORD_LOCK_MANAGER_H_
#define LOGBASE_COORD_LOCK_MANAGER_H_

#include <string>
#include <vector>

#include "src/coord/coordination_service.h"
#include "src/util/slice.h"

namespace logbase::coord {

class LockManager {
 public:
  explicit LockManager(CoordinationService* coord);

  /// Takes the exclusive lock of every key in `keys` for `owner` (an
  /// opaque transaction identity) and draws the next timestamp, in one
  /// coordination multi; returns the timestamp. All or none: Busy when
  /// another owner holds one of the keys, and then nothing is taken and no
  /// timestamp is drawn. A key `owner` already holds in `session` counts as
  /// taken (re-entrant).
  Result<uint64_t> LockAllAndStamp(SessionId session,
                                   const std::vector<std::string>& keys,
                                   const std::string& owner,
                                   int client_node);

  /// Releases, in one multi-delete, every key in `keys` that `owner` holds
  /// in `session`; keys held by anyone else are left alone.
  void UnlockAll(SessionId session, const std::vector<std::string>& keys,
                 const std::string& owner, int client_node);

  /// Current holder of the lock, or NotFound.
  Result<std::string> Holder(const Slice& key) const;

  /// Lock-node path for `key` (keys are hex-escaped into one path segment).
  static std::string LockPath(const Slice& key);

 private:
  static constexpr const char* kLockRoot = "/locks";

  CoordinationService* coord_;
};

}  // namespace logbase::coord

#endif  // LOGBASE_COORD_LOCK_MANAGER_H_
