#include "perfbench/src/oracle.h"

#include "perfbench/src/gen.h"

namespace perfbench {

namespace {

uint64_t Fnv1a(const logbase::Slice& s) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < s.size(); i++) {
    h = (h ^ static_cast<uint8_t>(s.data()[i])) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

void Oracle::Ack(uint64_t key, uint64_t value_seed,
                 const logbase::Slice& value) {
  Entry& e = entries_[key];
  live_bytes_ -= e.bytes;
  e.bytes = KeyName(key).size() + value.size();
  live_bytes_ += e.bytes;
  e.present = true;
  e.f0 = ValueF0(value_seed);
  e.hash = Fnv1a(value);
}

bool Oracle::Fail(const std::string& what) {
  if (mismatches_++ == 0) first_mismatch_ = what;
  return false;
}

bool Oracle::CheckGet(uint64_t key, bool found, const logbase::Slice& value) {
  checks_++;
  const Entry& e = entries_[key];
  if (found != e.present) {
    return Fail("get " + KeyName(key) + ": found=" + std::to_string(found) +
                " but acked=" + std::to_string(e.present));
  }
  if (found && Fnv1a(value) != e.hash) {
    return Fail("get " + KeyName(key) + ": value differs from last acked");
  }
  return true;
}

bool Oracle::CheckScan(uint64_t start, uint64_t end,
                       const std::vector<logbase::tablet::ReadRow>& rows) {
  checks_++;
  size_t next = 0;
  for (uint64_t key = start; key < end; key++) {
    const Entry& e = entries_[key];
    if (!e.present) continue;
    if (next >= rows.size() || rows[next].key != KeyName(key)) {
      return Fail("scan [" + KeyName(start) + "," + KeyName(end) +
                  "): missing or out-of-order row for " + KeyName(key));
    }
    if (Fnv1a(rows[next].value) != e.hash) {
      return Fail("scan: value of " + KeyName(key) +
                  " differs from last acked");
    }
    next++;
  }
  if (next != rows.size()) {
    return Fail("scan [" + KeyName(start) + "," + KeyName(end) +
                "): unexpected extra rows");
  }
  return true;
}

bool Oracle::CheckQuery(
    uint64_t start, uint64_t end, int f0_equals,
    const std::vector<logbase::query::ColumnBatch>& batches) {
  checks_++;
  uint64_t key = start;
  const std::string want_f0 = std::to_string(f0_equals);
  auto next_expected = [&]() {
    while (key < end && !(entries_[key].present &&
                          entries_[key].f0 == f0_equals)) {
      key++;
    }
  };
  for (const logbase::query::ColumnBatch& batch : batches) {
    const logbase::query::BatchColumn* f0 = batch.Find("f0");
    for (size_t row = 0; row < batch.NumRows(); row++) {
      next_expected();
      if (key >= end || batch.keys[row] != KeyName(key)) {
        return Fail("query: row " + batch.keys[row] +
                    " not expected (next expected " +
                    (key < end ? KeyName(key) : std::string("none")) + ")");
      }
      if (f0 == nullptr || !f0->present[row] || f0->cells[row] != want_f0) {
        return Fail("query: f0 of " + batch.keys[row] + " is wrong");
      }
      key++;
    }
  }
  next_expected();
  if (key < end) {
    return Fail("query: matching row " + KeyName(key) + " missing");
  }
  return true;
}

}  // namespace perfbench
