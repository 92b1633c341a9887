// Byte-wise bit-image codec shared by Vmcs and Vmcb.
//
// A bit image is every field's value, truncated to the field's semantic
// width, packed back to back in table order with bit 0 of each field first.
// Every width is a whole number of bytes (each table static_asserts
// WidthsAreWholeBytes), so a field is exactly its low bits/8 bytes stored
// little-endian, and the codec moves one byte per step.
#ifndef SRC_ARCH_FIELD_IMAGE_H_
#define SRC_ARCH_FIELD_IMAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace neco {

template <class Table>
constexpr bool WidthsAreWholeBytes(const Table& table) {
  for (const auto& info : table) {
    if (info.bits == 0 || info.bits > 64 || info.bits % 8 != 0) {
      return false;
    }
  }
  return true;
}

template <class Table>
constexpr size_t ImageBits(const Table& table) {
  size_t total = 0;
  for (const auto& info : table) {
    total += info.bits;
  }
  return total;
}

// `image` must hold the table's full image; values are already masked to
// their widths.
template <class Table>
void PackFieldImage(const Table& table, std::span<const uint64_t> values,
                    std::span<uint8_t> image) {
  size_t pos = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    for (size_t b = 0; b < table[i].bits / 8u; ++b) {
      image[pos++] = static_cast<uint8_t>(values[i] >> (8 * b));
    }
  }
}

// Bytes past the end of a short `image` read as 0.
template <class Table>
void UnpackFieldImage(const Table& table, std::span<const uint8_t> image,
                      std::span<uint64_t> values) {
  size_t pos = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    const size_t bytes = table[i].bits / 8u;
    const size_t avail =
        pos < image.size() ? std::min(bytes, image.size() - pos) : 0;
    uint64_t v = 0;
    for (size_t b = 0; b < avail; ++b) {
      v |= static_cast<uint64_t>(image[pos + b]) << (8 * b);
    }
    values[i] = v;
    pos += bytes;
  }
}

}  // namespace neco

#endif  // SRC_ARCH_FIELD_IMAGE_H_
