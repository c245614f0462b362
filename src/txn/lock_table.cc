#include "src/txn/lock_table.h"

#include <algorithm>
#include <thread>

#include "src/sim/sim_context.h"

namespace logbase::txn {

OrderedLockSet::OrderedLockSet(coord::LockManager* locks,
                               coord::SessionId session, std::string owner,
                               int client_node)
    : locks_(locks),
      session_(session),
      owner_(std::move(owner)),
      client_node_(client_node) {}

OrderedLockSet::~OrderedLockSet() { ReleaseAll(); }

std::string OrderedLockSet::LockName(const TxnCell& cell) {
  std::string name = cell.tablet_uid;
  name.push_back('\0');
  name += cell.key;
  return name;
}

Result<uint64_t> OrderedLockSet::AcquireAll(const std::vector<TxnCell>& cells,
                                            int max_attempts) {
  std::vector<TxnCell> ordered = cells;
  std::sort(ordered.begin(), ordered.end());
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
  std::vector<std::string> names;
  names.reserve(ordered.size());
  for (const TxnCell& cell : ordered) names.push_back(LockName(cell));

  Status busy;
  for (int attempt = 0; attempt < max_attempts; attempt++) {
    auto stamped =
        locks_->LockAllAndStamp(session_, names, owner_, client_node_);
    if (stamped.ok()) {
      held_ = std::move(names);
      holds_all_ = true;
      return stamped;
    }
    if (!stamped.status().IsBusy()) return stamped.status();
    busy = stamped.status();
    // Another validating transaction holds one of the locks. It waits on
    // nothing while holding them, so keep pre-claiming.
    std::this_thread::yield();
  }
  return Status::Busy("could not acquire write locks: " + busy.message());
}

void OrderedLockSet::ReleaseAll() {
  if (held_.empty()) return;
  // Off the critical path: the multi-delete still charges the NICs and the
  // ensemble, on a clock of its own.
  sim::SimContext* ctx = sim::SimContext::Current();
  sim::SimContext detached(ctx != nullptr ? ctx->now() : 0);
  {
    sim::SimContext::Scope scope(ctx != nullptr ? &detached : nullptr);
    locks_->UnlockAll(session_, held_, owner_, client_node_);
  }
  held_.clear();
  holds_all_ = false;
}

}  // namespace logbase::txn
