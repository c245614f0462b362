// Correctness oracle: a shadow copy of the last acknowledged value of every
// key, against which every Get, Scan and Query result is checked. A read
// that returns anything but the last acked value (or a scan/query whose row
// set differs from what the shadow predicts) is a mismatch; any mismatch
// fails the run.

#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/query/column_batch.h"
#include "src/tablet/tablet_server.h"
#include "src/util/slice.h"

namespace perfbench {

class Oracle {
 public:
  explicit Oracle(uint64_t num_keys) : entries_(num_keys) {}

  uint64_t num_keys() const { return entries_.size(); }
  bool acked(uint64_t key) const { return entries_[key].present; }

  /// Records an acknowledged write of `value` (written under `value_seed`).
  void Ack(uint64_t key, uint64_t value_seed, const logbase::Slice& value);

  /// A point read returned `value` (`found` false: the key was absent).
  bool CheckGet(uint64_t key, bool found, const logbase::Slice& value);
  /// A range scan of key indexes [start, end) returned `rows`.
  bool CheckScan(uint64_t start, uint64_t end,
                 const std::vector<logbase::tablet::ReadRow>& rows);
  /// A query over [start, end) with predicate `f0 == f0_equals`, projecting
  /// `f0`, returned `batches`.
  bool CheckQuery(uint64_t start, uint64_t end, int f0_equals,
                  const std::vector<logbase::query::ColumnBatch>& batches);

  /// Key plus value bytes of every acked key's last value.
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t checks() const { return checks_; }
  uint64_t mismatches() const { return mismatches_; }
  /// Description of the first mismatch, empty when none.
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  struct Entry {
    bool present = false;
    int f0 = 0;
    uint64_t hash = 0;
    uint64_t bytes = 0;
  };

  bool Fail(const std::string& what);

  std::vector<Entry> entries_;
  uint64_t live_bytes_ = 0;
  uint64_t checks_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
