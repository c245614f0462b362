#include "src/txn/transaction_manager.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/costs.h"
#include "src/sim/sim_context.h"
#include "src/txn/lock_table.h"
#include "src/util/logging.h"

namespace logbase::txn {

namespace {

obs::Counter* TxnCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}

}  // namespace

TransactionManager::TransactionManager(coord::CoordinationService* coord,
                                       int client_node,
                                       ServerResolver resolver,
                                       TransactionManagerOptions options)
    : coord_(coord),
      client_node_(client_node),
      options_(options),
      resolver_(std::move(resolver)),
      locks_(coord) {
  session_ = coord_->CreateSession(client_node_);
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  stats_.begun.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* begun = TxnCounter("txn.begun");
  begun->Add();
  // The snapshot is the latest issued timestamp: every transaction that
  // committed before Begin is visible.
  return std::make_unique<Transaction>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed),
      coord_->LatestTimestamp());
}

Result<std::string> TransactionManager::Read(Transaction* txn,
                                             const std::string& tablet_uid,
                                             const Slice& key) {
  sim::ChargeCpu(sim::costs::kTxnBookkeepingUs);
  TxnCell cell{tablet_uid, key.ToString()};
  // Read-your-own-writes.
  if (const BufferedWrite* own = txn->FindWrite(cell)) {
    if (own->is_delete) return Status::NotFound("deleted in this txn");
    return own->value;
  }

  tablet::TabletServer* server = resolver_(tablet_uid);
  if (server == nullptr) return Status::Unavailable("no server for tablet");
  auto read = server->Get(tablet_uid, key, txn->snapshot_ts());
  if (read.ok()) {
    txn->RecordRead(cell, read->timestamp);
    return std::move(read->value);
  }
  if (read.status().IsNotFound()) {
    txn->RecordRead(cell, 0);
  }
  return read.status();
}

Status TransactionManager::Write(Transaction* txn,
                                 const std::string& tablet_uid,
                                 const Slice& key, const Slice& value) {
  sim::ChargeCpu(sim::costs::kTxnBookkeepingUs);
  TxnCell cell{tablet_uid, key.ToString()};
  if (txn->FindReadVersion(cell) == nullptr) {
    // No blind writes: observe the version being overwritten so validation
    // can detect a concurrent committer.
    tablet::TabletServer* server = resolver_(tablet_uid);
    if (server == nullptr) return Status::Unavailable("no server for tablet");
    auto version = server->LatestVersion(tablet_uid, key);
    if (!version.ok()) return version.status();
    txn->RecordRead(cell, *version);
  }
  txn->BufferWrite(cell, BufferedWrite{false, value.ToString()});
  return Status::OK();
}

Status TransactionManager::Delete(Transaction* txn,
                                  const std::string& tablet_uid,
                                  const Slice& key) {
  TxnCell cell{tablet_uid, key.ToString()};
  if (txn->FindReadVersion(cell) == nullptr) {
    tablet::TabletServer* server = resolver_(tablet_uid);
    if (server == nullptr) return Status::Unavailable("no server for tablet");
    auto version = server->LatestVersion(tablet_uid, key);
    if (!version.ok()) return version.status();
    txn->RecordRead(cell, *version);
  }
  txn->BufferWrite(cell, BufferedWrite{true, ""});
  return Status::OK();
}

Status TransactionManager::ValidateLocked(Transaction* txn) {
  // First-committer-wins: if any record in the write set changed since this
  // transaction observed it, a concurrent transaction committed first.
  // Under the serializable option the whole read set is validated too,
  // eliminating write skew (rw-antidependency cycles).
  for (const auto& [cell, observed] : txn->read_versions()) {
    if (!options_.serializable && txn->FindWrite(cell) == nullptr) {
      continue;  // snapshot isolation: reads outside the write set pass
    }
    tablet::TabletServer* server = resolver_(cell.tablet_uid);
    if (server == nullptr) return Status::Unavailable("no server for tablet");
    auto current = server->LatestVersion(cell.tablet_uid, Slice(cell.key));
    if (!current.ok()) return current.status();
    if (*current != observed) {
      return Status::Aborted("conflict on " + cell.key);
    }
  }
  return Status::OK();
}

Status TransactionManager::PersistAndPublish(Transaction* txn,
                                             log::AckMode ack) {
  // One write set per participant server, keyed by server id so the 2PC
  // append order is the same on every run.
  struct Participant {
    tablet::WritePath* path = nullptr;
    tablet::WriteSet set;
    tablet::StagedWrite staged;
  };
  std::map<int, Participant> participants;

  for (const auto& [cell, write] : txn->writes()) {
    tablet::TabletServer* server = resolver_(cell.tablet_uid);
    if (server == nullptr) return Status::Unavailable("no server for tablet");
    Participant& p = participants[server->server_id()];
    p.path = server->write_path();
    p.set.txn_id = txn->id();
    p.set.commit_ts = txn->commit_ts();
    p.set.ops.push_back(tablet::WriteOp{cell.tablet_uid, cell.key,
                                        write.value, write.is_delete});
  }

  if (participants.size() == 1) {
    // Fast path: data + COMMIT in one group-committed append (§3.7.2).
    Participant& p = participants.begin()->second;
    p.set.with_commit = true;
    auto staged = p.path->Stage(std::move(p.set), ack);
    if (!staged.ok()) return staged.status();
    return p.path->Complete(&*staged);
  }

  // 2PC phase one stages and makes durable every participant's share at
  // once: each runs on a child clock from the same start, and the caller
  // advances to the latest completion. Every share is tried; any failure
  // releases them all before a COMMIT exists anywhere, so the data stays
  // invisible and replay drops it.
  sim::SimContext* ctx = sim::SimContext::Current();
  const sim::VirtualTime base = ctx != nullptr ? ctx->now() : 0;
  sim::VirtualTime finish = base;
  Status phase_one;
  for (auto& [server_id, p] : participants) {
    sim::SimContext child(base);
    Status durable = [&] {
      sim::SimContext::Scope scope(ctx != nullptr ? &child : nullptr);
      auto staged = p.path->Stage(std::move(p.set), ack);
      if (!staged.ok()) return staged.status();
      p.staged = std::move(*staged);
      return p.path->MakeDurable(&p.staged);
    }();
    finish = std::max(finish, child.now());
    if (phase_one.ok()) phase_one = durable;
  }
  if (ctx != nullptr) ctx->AdvanceTo(finish);
  if (!phase_one.ok()) {
    for (auto& [server_id, p] : participants) p.path->Release(&p.staged);
    return phase_one;
  }

  // Phase two: COMMITs go out one at a time in participant order and stop
  // at the first failure. Sent in parallel, a failed first COMMIT could sit
  // beside a durable second one.
  Status phase_two;
  for (auto& [server_id, p] : participants) {
    if (phase_two.ok()) {
      phase_two = p.path->AppendCommit(txn->id(), txn->commit_ts(), ack);
    }
    if (!phase_two.ok()) p.path->Release(&p.staged);
  }

  // Publication: only now do the writes become visible to reads. A share
  // whose COMMIT is durable is published even when a later COMMIT failed:
  // replay applies it too.
  Status published = phase_two;
  for (auto& [server_id, p] : participants) {
    if (p.staged.seq == 0) continue;  // released
    Status s = p.path->Publish(&p.staged);
    if (published.ok()) published = s;
  }
  return published;
}

Status TransactionManager::Commit(Transaction* txn, log::AckMode ack) {
  if (txn->state() != Transaction::State::kActive) {
    return Status::InvalidArgument("transaction not active");
  }
  obs::Span span("txn.commit");
  static obs::Counter* committed = TxnCounter("txn.committed");
  // Read-only transactions saw a consistent snapshot: always commit
  // (§3.7.1 — the separation MVOCC buys).
  if (txn->read_only()) {
    txn->set_state(Transaction::State::kCommitted);
    stats_.committed.fetch_add(1, std::memory_order_relaxed);
    committed->Add();
    return Status::OK();
  }

  std::vector<TxnCell> cells;
  cells.reserve(txn->writes().size());
  for (const auto& [cell, write] : txn->writes()) cells.push_back(cell);
  if (options_.serializable) {
    // Read locks too (§3.7.1): blocks concurrent writers of what we read.
    for (const auto& [cell, version] : txn->read_versions()) {
      cells.push_back(cell);
    }
  }

  // One coordination multi takes every lock and draws the commit
  // timestamp. A transaction that then fails validation leaves its
  // timestamp unused: timestamps need only be unique and increasing.
  OrderedLockSet lock_set(&locks_, session_,
                          "txn-" + std::to_string(txn->id()), client_node_);
  Result<uint64_t> commit_ts = [&] {
    obs::Span lock_span("txn.lock.wait");
    return lock_set.AcquireAll(cells);
  }();
  if (!commit_ts.ok()) {
    stats_.lock_failures.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* lock_failures = TxnCounter("txn.lock_failures");
    lock_failures->Add();
    Abort(txn);
    return Status::Aborted(commit_ts.status().message());
  }

  Status valid = ValidateLocked(txn);
  if (!valid.ok()) {
    if (valid.IsAborted()) {
      stats_.validation_failures.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter* validation_failures =
          TxnCounter("txn.validation_failures");
      validation_failures->Add();
    }
    Abort(txn);
    return valid;
  }

  txn->set_commit_ts(*commit_ts);
  Status persisted = PersistAndPublish(txn, ack);
  if (!persisted.ok()) {
    Abort(txn);
    return persisted;
  }
  txn->set_state(Transaction::State::kCommitted);
  stats_.committed.fetch_add(1, std::memory_order_relaxed);
  committed->Add();
  return Status::OK();
}

void TransactionManager::Abort(Transaction* txn) {
  if (txn->state() == Transaction::State::kActive) {
    txn->set_state(Transaction::State::kAborted);
    stats_.aborted.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* aborted = TxnCounter("txn.aborted");
    aborted->Add();
  }
}

}  // namespace logbase::txn
