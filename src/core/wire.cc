#include "src/core/wire.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <type_traits>

#include "src/cpu/entry_check.h"
#include "src/cpu/vmx_checks.h"

namespace neco {
namespace wire {
namespace {

// --- One field list, three passes ----------------------------------------
//
// Each record's layout is written once, as a Fields(io, record) function
// (further down) that names its fields in wire order: `io(a, b, ...)`
// visits fields and `io.Check(condition)` states a cross-field invariant.
// Three passes drive every list:
//
//   Sizer   sums the payload size, so Frame() allocates header + payload
//           exactly once (capacity == size, no growth doubling);
//   Writer  writes the payload into that buffer;
//   Reader  reads it back bounds-checked, and rejects the record on the
//           first short read, impossible count, or failed Check().
//
// A field's wire form follows from its C++ type. Integers, enums, bools
// and doubles are fixed-width little-endian scalars of sizeof(T) bytes
// (a double as its IEEE-754 image), assembled byte by byte so frames
// decode identically across hosts. Strings and byte vectors are a u32 length plus
// the bytes, copied as one block. Other vectors are a u32 count plus the
// elements, arrays are their elements, pointers are what they point to,
// and any other struct is its own field list.

static_assert(sizeof(size_t) == 8, "size_t fields travel as u64");

template <class T>
inline constexpr bool kIsScalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <class T>
inline constexpr bool kIsBlob =
    std::is_same_v<T, std::string> || std::is_same_v<T, FuzzInput>;

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

// Routes one field to the pass's leaf for its type (see above).
template <class Io, class T>
void Visit(Io& io, T& field) {
  using U = std::remove_cv_t<T>;
  if constexpr (kIsScalar<U>) {
    io.Scalar(field);
  } else if constexpr (kIsBlob<U>) {
    io.Blob(field);
  } else if constexpr (kIsVector<U>) {
    io.Vector(field);
  } else if constexpr (std::is_pointer_v<U>) {
    Visit(io, *field);
  } else if constexpr (std::is_array_v<U>) {
    for (auto& element : field) {
      Visit(io, element);
    }
  } else {
    // Field lists take a mutable record so Reader can fill it; the encode
    // passes never write through it.
    Fields(io, const_cast<U&>(field));
  }
}

// Pass 1: accumulates the payload size.
class Sizer {
 public:
  template <class... Ts>
  void operator()(Ts&&... fields) {
    (Visit(*this, fields), ...);
  }
  void Check(bool) {}

  template <class T>
  void Scalar(const T&) {
    size_ += sizeof(T);
  }
  template <class Bytes>
  void Blob(const Bytes& bytes) {
    size_ += 4 + bytes.size();
  }
  template <class T>
  void Vector(const std::vector<T>& values) {
    size_ += 4;
    if constexpr (kIsScalar<T>) {
      size_ += values.size() * sizeof(T);
    } else {
      for (const T& value : values) {
        Visit(*this, value);
      }
    }
  }
  // Two parallel arrays under one count, elements interleaved.
  template <class A, class B>
  void Zip(const std::vector<A>& a, const std::vector<B>& b) {
    size_ += 4;
    if constexpr (kIsScalar<A> && kIsScalar<B>) {
      size_ += a.size() * (sizeof(A) + sizeof(B));
    } else {
      for (size_t i = 0; i < a.size(); ++i) {
        Visit(*this, a[i]);
        Visit(*this, b[i]);
      }
    }
  }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

// The fewest wire bytes one T can take: the size of a default T, whose
// strings and vectors are empty. Reader's count guard is built on it.
template <class T>
size_t MinWireSize() {
  Sizer sizer;
  T value{};
  Visit(sizer, value);
  return sizer.size();
}

// Pass 2: writes into the buffer Frame() sized with pass 1.
class Writer {
 public:
  explicit Writer(uint8_t* out) : out_(out) {}

  template <class... Ts>
  void operator()(Ts&&... fields) {
    (Visit(*this, fields), ...);
  }
  void Check(bool) {}

  template <class T>
  void Scalar(T value) {
    uint64_t image = 0;
    if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(image) == sizeof(value));
      std::memcpy(&image, &value, sizeof(image));
    } else {
      image = static_cast<uint64_t>(value);
    }
    // Assembled locally and stored once: byte stores straight into the
    // frame get vectorized into byte scatters inside vector loops, which
    // is slower than one store per field.
    uint8_t bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<uint8_t>(image >> (8 * i));
    }
    std::memcpy(out_, bytes, sizeof(T));
    out_ += sizeof(T);
  }
  template <class Bytes>
  void Blob(const Bytes& bytes) {
    Scalar(static_cast<uint32_t>(bytes.size()));
    if (!bytes.empty()) {
      std::memcpy(out_, bytes.data(), bytes.size());
      out_ += bytes.size();
    }
  }
  template <class T>
  void Vector(const std::vector<T>& values) {
    Scalar(static_cast<uint32_t>(values.size()));
    for (const T& value : values) {
      Visit(*this, value);
    }
  }
  template <class A, class B>
  void Zip(const std::vector<A>& a, const std::vector<B>& b) {
    Scalar(static_cast<uint32_t>(a.size()));
    for (size_t i = 0; i < a.size(); ++i) {
      Visit(*this, a[i]);
      Visit(*this, b[i]);
    }
  }

 private:
  uint8_t* out_;
};

// Decoding: bounds-checked reads over one payload.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : pos_(data), end_(data + size) {}

  template <class... Ts>
  void operator()(Ts&&... fields) {
    (Visit(*this, fields), ...);
  }
  // A record that breaks one of its own invariants is corrupt.
  void Check(bool condition) { ok_ = ok_ && condition; }
  // A record must consume its payload exactly; trailing bytes are corrupt.
  bool Done() const { return ok_ && pos_ == end_; }

  template <class T>
  void Scalar(T& value) {
    if (!Require(sizeof(T))) {
      return;
    }
    uint64_t image = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      image |= static_cast<uint64_t>(pos_[i]) << (8 * i);
    }
    pos_ += sizeof(T);
    if constexpr (std::is_floating_point_v<T>) {
      std::memcpy(&value, &image, sizeof(value));
    } else if constexpr (std::is_enum_v<T>) {
      value = static_cast<T>(static_cast<std::underlying_type_t<T>>(image));
    } else {
      value = static_cast<T>(image);
    }
  }
  template <class Bytes>
  void Blob(Bytes& bytes) {
    uint32_t size = 0;
    Scalar(size);
    if (!Require(size)) {
      return;
    }
    const auto* data =
        reinterpret_cast<const typename Bytes::value_type*>(pos_);
    bytes.assign(data, data + size);
    pos_ += size;
  }
  template <class T>
  void Vector(std::vector<T>& values) {
    const uint32_t count = Count(MinWireSize<T>());
    values.resize(count);
    for (T& value : values) {
      Visit(*this, value);
    }
  }
  template <class A, class B>
  void Zip(std::vector<A>& a, std::vector<B>& b) {
    const uint32_t count = Count(MinWireSize<A>() + MinWireSize<B>());
    a.resize(count);
    b.resize(count);
    for (size_t i = 0; i < count; ++i) {
      Visit(*this, a[i]);
      Visit(*this, b[i]);
    }
  }

 private:
  bool Require(size_t n) {
    ok_ = ok_ && static_cast<size_t>(end_ - pos_) >= n;
    return ok_;
  }
  // Reads a count field and guards it before anything is allocated: each
  // element needs at least `element_size` bytes, so a count the remaining
  // payload cannot hold is corrupt (and would otherwise turn four
  // attacker-controlled bytes into a huge allocation). 0 once failed.
  uint32_t Count(size_t element_size) {
    uint32_t count = 0;
    Scalar(count);
    Check(count <= static_cast<size_t>(end_ - pos_) / element_size);
    return ok_ ? count : 0;
  }

  const uint8_t* pos_;
  const uint8_t* end_;
  bool ok_ = true;
};

// --- Field lists ---------------------------------------------------------
//
// One per record, plus the structs records embed. Each lists the fields
// in wire order and states the record's invariants; a record's type byte
// comes from its position in wire::Records.

template <class Io>
void Fields(Io& io, AnomalyReport& r) {
  io(r.kind, r.bug_id, r.message);
  io.Check(r.kind <= AnomalyKind::kLogWarning);
}

template <class Io>
void Fields(Io& io, BitmapDelta& r) {
  io.Zip(r.cells, r.bits);
}

template <class Io>
void Fields(Io& io, QueueEntry& r) {
  io(r.input, r.discovered_at_iter, r.times_fuzzed, r.new_edges, r.favored);
}

template <class Io>
void Fields(Io& io, Rng::State& r) {
  io(r.s);
}

template <class Io>
void Fields(Io& io, CoverageSample& r) {
  io(r.iteration, r.percent);
}

template <class Io>
void Fields(Io& io, PoolEntry& r) {
  io(r.origin, r.input);
}

template <class Io>
void Fields(Io& io, FuzzerStats& r) {
  io(r.iterations, r.queue_size, r.unique_anomalies, r.bitmap_edges);
}

// The result the two completion events and ShardResultRecord embed.
template <class Io>
void Fields(Io& io, CampaignResult& r) {
  io(r.series, r.final_percent, r.covered_points, r.total_points,
     r.covered_set, r.findings, r.fuzzer_stats, r.watchdog_restarts);
  const std::vector<size_t>& set = r.covered_set;
  io.Check(r.covered_points == set.size());
  // Strictly ascending, and the last (largest) point inside the unit.
  io.Check(std::adjacent_find(set.begin(), set.end(),
                              std::greater_equal<>()) == set.end() &&
           (set.empty() || set.back() < r.total_points));
}

// Crash reproduction pairs travel as two arrays that are parallel by
// contract; a record whose arrays disagree is corrupt, not misaligned.
template <class Io, class Record>
void CrashPairs(Io& io, Record& r) {
  io(r.crash_ids, r.crash_inputs);
  io.Check(r.crash_ids.size() == r.crash_inputs.size());
}

// `queue` is a parameter so the zero-copy Encode overload can write corpus
// pointers where the record's own queue entries would go.
template <class Io, class Delta, class Queue>
void ShardDeltaFields(Io& io, Delta& r, Queue& queue) {
  io(r.worker, r.epoch, r.iterations, r.imported, r.virgin, r.covered_points,
     queue, r.findings);
  CrashPairs(io, r);
}

template <class Io>
void Fields(Io& io, ShardDelta& r) {
  ShardDeltaFields(io, r, r.queue_entries);
}

template <class Io>
void Fields(Io& io, SampleEvent& r) {
  io(r.epoch, r.iteration, r.percent, r.covered_points);
}

template <class Io>
void Fields(Io& io, FindingEvent& r) {
  io(r.epoch, r.worker, r.report);
}

template <class Io>
void Fields(Io& io, CorpusSyncEvent& r) {
  io(r.epoch, r.worker, r.published, r.imported);
}

template <class Io>
void Fields(Io& io, ShardDoneEvent& r) {
  io(r.worker, r.result, r.corpus_imports);
}

template <class Io>
void Fields(Io& io, FinishEvent& r) {
  io(r.workers, r.epochs, r.result, r.corpus_imports);
}

template <class Io>
void Fields(Io& io, FeedbackRecord& r) {
  io(r.epoch, r.worker, r.pool_entries, r.virgin);
}

template <class Io>
void Fields(Io& io, ShardResultRecord& r) {
  io(static_cast<ShardDoneEvent&>(r));
  CrashPairs(io, r);
}

// The spec ShardChildConfigRecord and CampaignManifestRecord both embed.
template <class Io>
void Fields(Io& io, CampaignSpec& r) {
  io(r.epochs, r.workers, r.samples, r.arch, r.iterations, r.seed,
     r.corpus_sync, r.coverage_guidance, r.havoc_stack, r.splice_percent,
     r.use_harness, r.use_validator, r.use_configurator, r.oracle_interval,
     r.target);
  io.Check(r.arch <= 1);  // Arch::{kIntel,kAmd}.
  // A campaign without shards would divide its budget by zero.
  io.Check(r.workers >= 1);
}

template <class Io>
void Fields(Io& io, ShardChildConfigRecord& r) {
  io(static_cast<CampaignSpec&>(r), r.worker, r.start_epoch,
     r.snapshot_every);
  // A worker slot no parent owns.
  io.Check(r.worker >= 0 && r.worker < r.workers);
  // A tail that ends before it begins: nothing legitimate encodes that.
  io.Check(r.start_epoch <= r.epochs);
}

template <class Io>
void Fields(Io& io, ShardHelloRecord& r) {
  io(r.magic, r.worker);
  io.Check(r.magic == ShardHelloRecord::kMagic);  // Else a stray peer.
}

template <class Io>
void Fields(Io& io, CampaignManifestRecord& r) {
  io(r.magic, r.committed_epochs, r.snapshot_epochs,
     static_cast<CampaignSpec&>(r));
  io.Check(r.magic == CampaignManifestRecord::kMagic);
  // The snapshot must cover a committed prefix.
  io.Check(r.snapshot_epochs <= r.committed_epochs);
}

template <class Io>
void Fields(Io& io, EpochCommitRecord& r) {
  io(r.epoch, r.frames, r.checksum);
}

template <class Io>
void Fields(Io& io, CrashArtifactRecord& r) {
  io(r.seq, r.report, r.hypervisor, r.arch, r.iteration, r.input);
}

// Quirk values index the CheckId / VmxFixupId enums; anything at or past
// the kCount sentinel cannot round-trip through the validators.
template <class Value, class Enum>
bool AllBelow(const std::vector<Value>& values, Enum count) {
  return std::all_of(values.begin(), values.end(), [count](Value value) {
    return value < static_cast<Value>(count);
  });
}

template <class Io>
void Fields(Io& io, WorkerStateRecord& r) {
  io(r.worker, r.epochs_covered, r.mutator_rng, r.corpus_rng, r.iterations,
     r.corpus, r.virgin);
  CrashPairs(io, r);
  io(r.executions, r.watchdog_restarts, r.findings, r.vmx_suppressed_checks,
     r.vmx_learned_fixups, r.svm_suppressed_checks, r.host_crashed,
     r.host_restarts, r.covered, r.hit_events, r.imports);
  io.Check(AllBelow(r.vmx_suppressed_checks, CheckId::kCount) &&
           AllBelow(r.vmx_learned_fixups, VmxFixupId::kCount) &&
           AllBelow(r.svm_suppressed_checks, CheckId::kCount));
}

template <class Io>
void Fields(Io& io, SnapshotMergedStateRecord& r) {
  io(r.epochs_covered, r.virgin, r.covered, r.findings, r.prior_pool_end,
     r.pool_end, r.pool, r.series, r.total_iterations, r.feedback_virgin);
  // The shipped pool slice is exactly [prior_pool_end, pool_end).
  io.Check(r.prior_pool_end <= r.pool_end &&
           r.pool_end - r.prior_pool_end == r.pool.size());
}

// --- Framing -------------------------------------------------------------

template <class Record, class... Listed>
constexpr uint8_t TypeByte(TypeList<Listed...>) {
  const bool match[] = {std::is_same_v<Record, Listed>...};
  for (uint8_t i = 0; i < sizeof...(Listed); ++i) {
    if (match[i]) {
      return static_cast<uint8_t>(i + 1);
    }
  }
  return 0;
}

// A record's RecordType is its position in wire::Records, plus one.
template <class Record>
constexpr uint8_t kTypeByte = TypeByte<Record>(Records{});

uint32_t PayloadLength(const uint8_t* header) {
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(header[2 + i]) << (8 * i);
  }
  return length;
}

// Frames one payload: the Sizer pass fixes the length up front, so the
// frame is one exact allocation and the header is written once. `fields`
// is a generic lambda that runs the payload's field list on either pass.
template <class Record, class FieldsFn>
Buffer Frame(FieldsFn&& fields) {
  static_assert(kTypeByte<Record> != 0, "record missing from wire::Records");
  Sizer sizer;
  fields(sizer);
  Buffer out(kFrameHeaderSize + sizer.size());
  Writer writer(out.data());
  writer(kTypeByte<Record>, kVersion, static_cast<uint32_t>(sizer.size()));
  fields(writer);
  return out;
}

template <class Record>
Buffer EncodeRecord(const Record& record) {
  return Frame<Record>([&](auto& io) { io(record); });
}

template <class Record>
bool DecodeRecord(const uint8_t* data, size_t size, Record* out) {
  if (data == nullptr || size < kFrameHeaderSize ||
      data[0] != kTypeByte<Record> || data[1] != kVersion ||
      PayloadLength(data) != size - kFrameHeaderSize) {
    return false;
  }
  Reader reader(data + kFrameHeaderSize, size - kFrameHeaderSize);
  reader(*out);
  return reader.Done();
}

}  // namespace

// The public overloads (wire.h): each runs its record's field list.

Buffer Encode(const ShardDelta& record) { return EncodeRecord(record); }
Buffer Encode(const SampleEvent& record) { return EncodeRecord(record); }
Buffer Encode(const FindingEvent& record) { return EncodeRecord(record); }
Buffer Encode(const CorpusSyncEvent& record) { return EncodeRecord(record); }
Buffer Encode(const ShardDoneEvent& record) { return EncodeRecord(record); }
Buffer Encode(const FinishEvent& record) { return EncodeRecord(record); }
Buffer Encode(const FeedbackRecord& record) { return EncodeRecord(record); }
Buffer Encode(const ShardResultRecord& record) { return EncodeRecord(record); }
Buffer Encode(const ShardChildConfigRecord& record) {
  return EncodeRecord(record);
}
Buffer Encode(const ShardHelloRecord& record) { return EncodeRecord(record); }
Buffer Encode(const CampaignManifestRecord& record) {
  return EncodeRecord(record);
}
Buffer Encode(const EpochCommitRecord& record) { return EncodeRecord(record); }
Buffer Encode(const CrashArtifactRecord& record) {
  return EncodeRecord(record);
}
Buffer Encode(const WorkerStateRecord& record) { return EncodeRecord(record); }
Buffer Encode(const SnapshotMergedStateRecord& record) {
  return EncodeRecord(record);
}

bool Decode(const uint8_t* data, size_t size, ShardDelta* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, SampleEvent* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, FindingEvent* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, CorpusSyncEvent* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, ShardDoneEvent* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, FinishEvent* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, FeedbackRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, ShardResultRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, ShardChildConfigRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, ShardHelloRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, CampaignManifestRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, EpochCommitRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, CrashArtifactRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, WorkerStateRecord* out) {
  return DecodeRecord(data, size, out);
}
bool Decode(const uint8_t* data, size_t size, SnapshotMergedStateRecord* out) {
  return DecodeRecord(data, size, out);
}

Buffer Encode(const ShardDelta& record,
              const std::vector<const FuzzInput*>& queue_entries) {
  return Frame<ShardDelta>(
      [&](auto& io) { ShardDeltaFields(io, record, queue_entries); });
}

bool PeekType(const uint8_t* data, size_t size, RecordType* out) {
  if (data == nullptr || size < kFrameHeaderSize || data[0] < 1 ||
      data[0] > Records::kSize) {
    return false;
  }
  *out = static_cast<RecordType>(data[0]);
  return true;
}

bool FrameSize(const uint8_t* data, size_t size, size_t* out) {
  RecordType type;
  if (!PeekType(data, size, &type)) {
    return false;
  }
  const uint32_t length = PayloadLength(data);
  if (length > kMaxFramePayload) {
    return false;
  }
  *out = kFrameHeaderSize + static_cast<size_t>(length);
  return true;
}

}  // namespace wire
}  // namespace neco
