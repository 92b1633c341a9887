// Sparse model of L1 guest-physical memory.
//
// The fuzz-harness VM places structures the L0 hypervisor must read from
// guest memory — MSR-load/store areas, I/O and MSR bitmaps — at addresses
// it chooses. This sparse map stands in for the guest address space: reads
// of unwritten locations return zero, as freshly allocated guest pages do.
#ifndef SRC_HV_GUEST_MEMORY_H_
#define SRC_HV_GUEST_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace neco {

class GuestMemory {
 public:
  uint64_t Read64(uint64_t addr) const {
    const auto it = Find(words_, addr);
    return it != words_.end() && it->addr == (addr & ~7ULL) ? it->value : 0;
  }

  void Write64(uint64_t addr, uint64_t value) { WordAt(addr) = value; }

  uint32_t Read32(uint64_t addr) const {
    const uint64_t w = Read64(addr);
    return (addr & 4) != 0 ? static_cast<uint32_t>(w >> 32)
                           : static_cast<uint32_t>(w);
  }

  void Write32(uint64_t addr, uint32_t value) {
    uint64_t& w = WordAt(addr);
    if ((addr & 4) != 0) {
      w = (w & 0x00000000ffffffffULL) | (static_cast<uint64_t>(value) << 32);
    } else {
      w = (w & 0xffffffff00000000ULL) | value;
    }
  }

  // Bit test within a byte-addressed bitmap (I/O bitmap, MSR bitmap
  // semantics: bit N of the page starting at `base`).
  bool TestBit(uint64_t base, uint64_t bit) const {
    const uint64_t addr = base + (bit / 64) * 8;
    return (Read64(addr) >> (bit % 64)) & 1;
  }

  void SetBit(uint64_t base, uint64_t bit, bool on) {
    uint64_t& w = WordAt(base + (bit / 64) * 8);
    const uint64_t mask = 1ULL << (bit % 64);
    w = on ? (w | mask) : (w & ~mask);
  }

  // Keeps the capacity, so the next VM's writes do not allocate.
  void Clear() { words_.clear(); }
  size_t touched_words() const { return words_.size(); }

 private:
  struct Word {
    uint64_t addr;  // 8-byte aligned.
    uint64_t value;
  };

  // First word at or above addr's aligned word.
  template <class Words>
  static auto Find(Words& words, uint64_t addr) -> decltype(words.begin()) {
    return std::lower_bound(
        words.begin(), words.end(), addr & ~7ULL,
        [](const Word& w, uint64_t key) { return w.addr < key; });
  }

  // The word holding addr, inserted as 0 on first touch.
  uint64_t& WordAt(uint64_t addr) {
    const auto it = Find(words_, addr);
    if (it != words_.end() && it->addr == (addr & ~7ULL)) {
      return it->value;
    }
    return words_.insert(it, Word{addr & ~7ULL, 0})->value;
  }

  // Sorted by addr. An exec touches a few dozen words, so a binary search
  // and a short shift on insert cost less than a map node per word.
  std::vector<Word> words_;
};

// Layout of one VM-entry/exit MSR area entry in guest memory (16 bytes:
// MSR index, reserved, value).
struct MsrAreaEntry {
  uint32_t index = 0;
  uint64_t value = 0;
};

inline MsrAreaEntry ReadMsrAreaEntry(const GuestMemory& mem, uint64_t base,
                                     uint64_t i) {
  MsrAreaEntry e;
  e.index = static_cast<uint32_t>(mem.Read64(base + i * 16));
  e.value = mem.Read64(base + i * 16 + 8);
  return e;
}

inline void WriteMsrAreaEntry(GuestMemory& mem, uint64_t base, uint64_t i,
                              const MsrAreaEntry& e) {
  mem.Write64(base + i * 16, e.index);
  mem.Write64(base + i * 16 + 8, e.value);
}

}  // namespace neco

#endif  // SRC_HV_GUEST_MEMORY_H_
