#include "src/util/crc32c.h"

#include <array>

namespace logbase::crc32c {

namespace {

// Table-driven CRC32C: table generated at static-init time from the
// Castagnoli polynomial (reflected form 0x82f63b78).
struct Table {
  std::array<uint32_t, 256> t;
  constexpr Table() : t{} {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[i] = crc;
    }
  }
};

constexpr Table kTable;

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = ~init_crc;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace logbase::crc32c
