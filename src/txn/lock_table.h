// The distributed write locks of one transaction's MVOCC validation (paper
// §3.7.1), taken together with its commit timestamp in one coordination
// multi. The multi is all or none, so no transaction holds some locks while
// waiting for others and key order no longer carries deadlock freedom; the
// set is still sorted and de-duplicated so the same cells always make the
// same multi. RAII: the set releases on destruction.

#ifndef LOGBASE_TXN_LOCK_TABLE_H_
#define LOGBASE_TXN_LOCK_TABLE_H_

#include <string>
#include <vector>

#include "src/coord/lock_manager.h"
#include "src/txn/transaction.h"

namespace logbase::txn {

class OrderedLockSet {
 public:
  OrderedLockSet(coord::LockManager* locks, coord::SessionId session,
                 std::string owner, int client_node);
  ~OrderedLockSet();

  OrderedLockSet(const OrderedLockSet&) = delete;
  OrderedLockSet& operator=(const OrderedLockSet&) = delete;

  /// Takes every cell's lock and draws the commit timestamp in one multi,
  /// retrying the whole multi up to `max_attempts` times while another
  /// transaction holds one of the locks (the paper pre-claims until all
  /// locks are held; the bound guards against a crashed holder). Returns
  /// the commit timestamp, or Busy if the locks stayed held.
  Result<uint64_t> AcquireAll(const std::vector<TxnCell>& cells,
                              int max_attempts = 1000);

  /// Releases everything held with one multi-delete (also run by the
  /// destructor). The caller does not wait for the reply: the round trip
  /// is charged on a detached clock that starts at the caller's now.
  void ReleaseAll();

  bool holds_all() const { return holds_all_; }

 private:
  static std::string LockName(const TxnCell& cell);

  coord::LockManager* locks_;
  coord::SessionId session_;
  std::string owner_;
  int client_node_;
  std::vector<std::string> held_;
  bool holds_all_ = false;
};

}  // namespace logbase::txn

#endif  // LOGBASE_TXN_LOCK_TABLE_H_
