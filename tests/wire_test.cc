// Tests for the campaign wire format (src/core/wire.h).
//
// One typed suite runs every generic check on every record in
// wire::Records: round trip with ==, exact sizing, every truncation, a
// trailing byte, wrong type / version / length, random buffers, a flip of
// every byte, and decoding into a reused out-param. A table pins the
// record-specific rejections, golden hashes pin the v10 byte layout, and
// the rest covers the zero-copy overload, stream framing and random
// well-formed records.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/wire.h"
#include "src/support/rng.h"

namespace neco {
namespace {

FuzzInput MakeInput(uint8_t fill) {
  FuzzInput input(kFuzzInputSize, fill);
  input[0] = 0xA5;
  return input;
}

AnomalyReport MakeReport(const std::string& id) {
  return {AnomalyKind::kKasan, id, "KASAN: slab-out-of-bounds in " + id};
}

// --- One populated sample per record ---------------------------------------
//
// Every field holds a non-default value, so a field the codec drops or
// swaps fails a round trip, and the golden hashes cover every section of
// every layout. Samples obey their records' invariants, so each row of
// the rejection table below breaks exactly one.

template <class Record>
Record Sample();

template <>
ShardDelta Sample<ShardDelta>() {
  ShardDelta r;
  r.worker = 2;
  r.epoch = 7;
  r.iterations = 125;
  r.imported = 3;
  r.virgin.Append(0, 0x01);
  r.virgin.Append(513, 0x83);
  r.virgin.Append(65535, 0xFF);
  r.covered_points = {1, 94, 117};
  r.queue_entries = {MakeInput(0x00), MakeInput(0x42)};
  r.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  r.crash_ids = {"kvm-a", "kvm-b"};
  r.crash_inputs = {MakeInput(0x61), MakeInput(0x62)};
  return r;
}

template <>
SampleEvent Sample<SampleEvent>() {
  return {4, 12000, 79.66101694915254, 94};
}

template <>
FindingEvent Sample<FindingEvent>() {
  return {3, 1, MakeReport("xen-vmx-shadow")};
}

template <>
CorpusSyncEvent Sample<CorpusSyncEvent>() {
  return {9, 2, 23, 58};
}

// The result the completion events and the result record embed.
CampaignResult SampleResult() {
  CampaignResult r;
  r.series = {{300, 79.66101694915254}, {600, 80.50847457627118}};
  r.final_percent = 3.389830508474576;
  r.covered_points = 4;
  r.total_points = 118;
  r.covered_set = {0, 3, 94, 117};
  r.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  r.fuzzer_stats = {5000, 83, 2, 451};
  r.watchdog_restarts = 1;
  return r;
}

template <>
ShardDoneEvent Sample<ShardDoneEvent>() {
  return {3, SampleResult(), 59};
}

template <>
FinishEvent Sample<FinishEvent>() {
  return {4, 24, SampleResult(), 166};
}

template <>
FeedbackRecord Sample<FeedbackRecord>() {
  FeedbackRecord r;
  r.epoch = 11;
  r.worker = 3;
  r.pool_entries = {MakeInput(0x10), MakeInput(0x20), MakeInput(0x30)};
  r.virgin.Append(12, 0x01);
  r.virgin.Append(40000, 0xC0);
  return r;
}

template <>
ShardResultRecord Sample<ShardResultRecord>() {
  return {Sample<ShardDoneEvent>(),
          {"kvm-a", "kvm-b"},
          {MakeInput(0x61), MakeInput(0x62)}};
}

// The spec both the child config and the manifest sample embed.
CampaignSpec SampleSpec() {
  CampaignSpec r;
  r.epochs = 24;
  r.workers = 4;
  r.samples = 24;
  r.arch = 1;
  r.iterations = 20000;
  r.seed = 7;
  r.corpus_sync = 1;
  r.coverage_guidance = 1;
  r.havoc_stack = 24;
  r.splice_percent = 30;
  r.use_harness = 0;
  r.use_validator = 0;
  r.use_configurator = 0;
  r.oracle_interval = 96;
  r.target = "kvm";
  return r;
}

template <>
ShardChildConfigRecord Sample<ShardChildConfigRecord>() {
  ShardChildConfigRecord r{SampleSpec()};
  r.worker = 2;
  r.start_epoch = 10;
  r.snapshot_every = 5;
  return r;
}

template <>
ShardHelloRecord Sample<ShardHelloRecord>() {
  ShardHelloRecord r;
  r.worker = 5;
  return r;
}

template <>
CampaignManifestRecord Sample<CampaignManifestRecord>() {
  CampaignManifestRecord r{SampleSpec()};
  r.committed_epochs = 5;
  r.snapshot_epochs = 4;
  return r;
}

template <>
EpochCommitRecord Sample<EpochCommitRecord>() {
  EpochCommitRecord r;
  r.epoch = 5;
  r.frames = 4;
  r.checksum = 0xDEADBEEFCAFEF00DULL;
  return r;
}

template <>
CrashArtifactRecord Sample<CrashArtifactRecord>() {
  CrashArtifactRecord r;
  r.seq = 3;
  r.report = MakeReport("kvm-nsvm-dummy-root");
  r.hypervisor = "kvm";
  r.arch = "amd";
  r.iteration = 412;
  r.input = MakeInput(0x5C);
  return r;
}

template <>
WorkerStateRecord Sample<WorkerStateRecord>() {
  WorkerStateRecord r;
  r.worker = 2;
  r.epochs_covered = 10;
  r.mutator_rng.s[0] = 0x1111111111111111ULL;
  r.mutator_rng.s[1] = 0x2222222222222222ULL;
  r.mutator_rng.s[2] = 0x3333333333333333ULL;
  r.mutator_rng.s[3] = 0x4444444444444444ULL;
  r.corpus_rng.s[0] = 0x5555555555555555ULL;
  r.corpus_rng.s[1] = 0x6666666666666666ULL;
  r.corpus_rng.s[2] = 0x7777777777777777ULL;
  r.corpus_rng.s[3] = 0x8888888888888888ULL;
  r.iterations = 4200;
  QueueEntry entry;
  entry.input = MakeInput(0x11);
  entry.discovered_at_iter = 97;
  entry.times_fuzzed = 12;
  entry.new_edges = 5;
  entry.favored = true;
  r.corpus.push_back(entry);
  entry.input = MakeInput(0x22);
  entry.discovered_at_iter = 1033;
  entry.times_fuzzed = 4;
  entry.new_edges = 2;
  entry.favored = false;
  r.corpus.push_back(entry);
  r.virgin.Append(3, 0x01);
  r.virgin.Append(700, 0x80);
  r.crash_ids = {"kvm-a", "kvm-b"};
  r.crash_inputs = {MakeInput(0x61), MakeInput(0x62)};
  r.executions = 4217;
  r.watchdog_restarts = 1;
  r.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  r.vmx_suppressed_checks = {0, 1};
  r.vmx_learned_fixups = {0};
  r.svm_suppressed_checks = {1};
  r.host_crashed = 1;
  r.host_restarts = 3;
  r.covered = {0, 7, 94, 117};
  r.hit_events = 5123;
  r.imports = 42;
  return r;
}

template <>
SnapshotMergedStateRecord Sample<SnapshotMergedStateRecord>() {
  SnapshotMergedStateRecord r;
  r.epochs_covered = 10;
  r.virgin.Append(1, 0x01);
  r.virgin.Append(40000, 0xC0);
  r.covered = {0, 3, 94, 117};
  r.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  r.prior_pool_end = 2;
  r.pool_end = 5;
  r.pool = {{0, MakeInput(0x31)}, {2, MakeInput(0x32)}, {1, MakeInput(0x33)}};
  r.series = {{500, 10.5}, {1000, 40.25}, {1500, 79.66101694915254}};
  r.total_iterations = 1500;
  r.feedback_virgin.Append(12, 0x01);
  return r;
}

// --- Golden frames -----------------------------------------------------------

// FNV-1a 64 over a frame, written out here so the pins do not move if the
// library's own checksum code ever does.
uint64_t Fnv1a64(const wire::Buffer& bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (uint8_t byte : bytes) {
    hash = (hash ^ byte) * 0x100000001B3ULL;
  }
  return hash;
}

template <class Record>
uint64_t FrameHash() {
  return Fnv1a64(wire::Encode(Sample<Record>()));
}

TEST(WireGoldenTest, FramesKeepTheVersion10Layout) {
  // Streams and state dirs written by any v10 build must keep decoding,
  // so these hashes of the sample frames are the byte layout itself: a
  // change here is a format change, which needs a kVersion bump.
  EXPECT_EQ(wire::kVersion, 10);
  EXPECT_EQ(FrameHash<ShardDelta>(), 0x08302B990C838BFAULL);
  EXPECT_EQ(FrameHash<SampleEvent>(), 0xC5CBDAE53ECDDED4ULL);
  EXPECT_EQ(FrameHash<FindingEvent>(), 0x9382FDB3E9D73C1AULL);
  EXPECT_EQ(FrameHash<CorpusSyncEvent>(), 0xAD3E5283FA653631ULL);
  EXPECT_EQ(FrameHash<ShardDoneEvent>(), 0xFF523FF2622439A4ULL);
  EXPECT_EQ(FrameHash<FinishEvent>(), 0x3378200F85C28EB6ULL);
  EXPECT_EQ(FrameHash<FeedbackRecord>(), 0x0F0BEE31CFB3700BULL);
  EXPECT_EQ(FrameHash<ShardResultRecord>(), 0x63541FD6843E7588ULL);
  EXPECT_EQ(FrameHash<ShardChildConfigRecord>(), 0xED1738AAF83523C3ULL);
  EXPECT_EQ(FrameHash<ShardHelloRecord>(), 0x93267157F0223A6FULL);
  EXPECT_EQ(FrameHash<CampaignManifestRecord>(), 0x334D9EDB81654629ULL);
  EXPECT_EQ(FrameHash<EpochCommitRecord>(), 0x12A36DB1E60C4579ULL);
  EXPECT_EQ(FrameHash<CrashArtifactRecord>(), 0xEDD54BB49AF38845ULL);
  EXPECT_EQ(FrameHash<WorkerStateRecord>(), 0xF8A688AEC80E6458ULL);
  EXPECT_EQ(FrameHash<SnapshotMergedStateRecord>(), 0xD55E68157B9E8156ULL);

  // The zero-copy overload (queue entries read through corpus pointers,
  // record.queue_entries ignored) writes the same ShardDelta frame.
  ShardDelta referencing = Sample<ShardDelta>();
  const std::vector<FuzzInput> corpus = std::move(referencing.queue_entries);
  referencing.queue_entries = {MakeInput(0xEE)};
  std::vector<const FuzzInput*> entries;
  for (const FuzzInput& input : corpus) {
    entries.push_back(&input);
  }
  EXPECT_EQ(Fnv1a64(wire::Encode(referencing, entries)), 0x08302B990C838BFAULL);
}

// --- Generic checks, run on every record in wire::Records --------------------

template <class List>
struct AsGtestTypes;
template <class... Records>
struct AsGtestTypes<wire::TypeList<Records...>> {
  using type = ::testing::Types<Records...>;
};

template <class Record>
class WireRecordTest : public ::testing::Test {};
TYPED_TEST_SUITE(WireRecordTest, AsGtestTypes<wire::Records>::type);

// Rewrites the header's payload length, so a cut or padded payload gets
// past the header check and reaches the field list.
void SetPayloadLength(wire::Buffer& frame, size_t length) {
  for (size_t i = 0; i < 4; ++i) {
    frame[2 + i] = static_cast<uint8_t>(length >> (8 * i));
  }
}

// The decoder's contract on arbitrary bytes: reject them, or accept them
// as a record whose re-encoding decodes and re-encodes to itself.
template <class Record>
::testing::AssertionResult RejectedOrStable(const wire::Buffer& frame) {
  Record decoded;
  if (!wire::Decode(frame, &decoded)) {
    return ::testing::AssertionSuccess();
  }
  const wire::Buffer canonical = wire::Encode(decoded);
  if (canonical == frame) {
    return ::testing::AssertionSuccess();
  }
  Record again;
  if (wire::Decode(canonical, &again) && wire::Encode(again) == canonical) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "accepted, but its re-encoding does not round-trip";
}

TYPED_TEST(WireRecordTest, RoundTripIsIdentity) {
  for (const TypeParam& record : {Sample<TypeParam>(), TypeParam{}}) {
    const wire::Buffer frame = wire::Encode(record);
    // One exact allocation: what a transport writes is what was allocated.
    EXPECT_EQ(frame.capacity(), frame.size());
    size_t frame_size = 0;
    ASSERT_TRUE(wire::FrameSize(frame.data(), frame.size(), &frame_size));
    EXPECT_EQ(frame_size, frame.size());
    TypeParam decoded;
    ASSERT_TRUE(wire::Decode(frame, &decoded));
    EXPECT_EQ(decoded, record);
  }
}

TYPED_TEST(WireRecordTest, DecodeReplacesAReusedOutParam) {
  // Transports decode into long-lived records: no field, element or vector
  // tail of the previous contents may survive.
  TypeParam decoded = Sample<TypeParam>();
  ASSERT_TRUE(wire::Decode(wire::Encode(TypeParam{}), &decoded));
  EXPECT_EQ(decoded, TypeParam{});
}

TYPED_TEST(WireRecordTest, EveryTruncationIsRejected) {
  // A torn pipe frame or a torn state file.
  const wire::Buffer frame = wire::Encode(Sample<TypeParam>());
  TypeParam out;
  for (size_t size = 0; size < frame.size(); ++size) {
    EXPECT_FALSE(wire::Decode(frame.data(), size, &out)) << "size " << size;
    // Again with a header that agrees, so the field list must notice.
    if (size >= wire::kFrameHeaderSize) {
      wire::Buffer cut(frame.begin(), frame.begin() + size);
      SetPayloadLength(cut, size - wire::kFrameHeaderSize);
      EXPECT_FALSE(wire::Decode(cut, &out)) << "payload cut at " << size;
    }
  }
}

TYPED_TEST(WireRecordTest, TrailingByteIsRejected) {
  wire::Buffer frame = wire::Encode(Sample<TypeParam>());
  frame.push_back(0);
  TypeParam out;
  EXPECT_FALSE(wire::Decode(frame, &out));  // Header length disagrees.
  SetPayloadLength(frame, frame.size() - wire::kFrameHeaderSize);
  EXPECT_FALSE(wire::Decode(frame, &out));  // Payload not consumed.
}

TYPED_TEST(WireRecordTest, WrongTypeVersionOrLengthIsRejected) {
  const wire::Buffer frame = wire::Encode(Sample<TypeParam>());
  TypeParam out;
  for (int type = 0; type < 256; ++type) {
    wire::Buffer retyped = frame;
    retyped[0] = static_cast<uint8_t>(type);
    EXPECT_EQ(wire::Decode(retyped, &out), type == frame[0]) << type;
    // PeekType accepts exactly the listed record types.
    wire::RecordType peeked;
    EXPECT_EQ(wire::PeekType(retyped.data(), retyped.size(), &peeked),
              type >= 1 && type <= static_cast<int>(wire::Records::kSize))
        << type;
  }
  for (int version : {0, wire::kVersion - 1, wire::kVersion + 1, 0xFF}) {
    wire::Buffer versioned = frame;
    versioned[1] = static_cast<uint8_t>(version);
    EXPECT_FALSE(wire::Decode(versioned, &out)) << "version " << version;
  }
  const size_t payload = frame.size() - wire::kFrameHeaderSize;
  for (size_t length : {payload - 1, payload + 1, size_t{0xFFFFFFFF}}) {
    wire::Buffer relengthed = frame;
    SetPayloadLength(relengthed, length);
    EXPECT_FALSE(wire::Decode(relengthed, &out)) << "length " << length;
  }
}

TYPED_TEST(WireRecordTest, RandomBuffersAreRejectedOrStable) {
  // Garbage mostly dies at the header; behind a valid header it reaches
  // the field list, whose count guards must hold without overreading.
  const wire::Buffer header = wire::Encode(TypeParam{});
  Rng rng(0x57495245);  // "WIRE"
  for (int i = 0; i < 1000; ++i) {
    wire::Buffer garbage(rng.Below(160));
    for (uint8_t& byte : garbage) {
      byte = static_cast<uint8_t>(rng.Below(256));
    }
    EXPECT_TRUE(RejectedOrStable<TypeParam>(garbage));
    wire::Buffer framed(header.begin(),
                        header.begin() + wire::kFrameHeaderSize);
    SetPayloadLength(framed, garbage.size());
    framed.insert(framed.end(), garbage.begin(), garbage.end());
    EXPECT_TRUE(RejectedOrStable<TypeParam>(framed));
  }
}

TYPED_TEST(WireRecordTest, EveryByteFlipIsRejectedOrStable) {
  // A corrupting peer or a bad sector, at every position of the frame.
  wire::Buffer frame = wire::Encode(Sample<TypeParam>());
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      frame[pos] ^= mask;
      EXPECT_TRUE(RejectedOrStable<TypeParam>(frame))
          << "byte " << pos << " ^ " << static_cast<int>(mask);
      frame[pos] ^= mask;
    }
  }
}

// --- Record-specific rejections ----------------------------------------------
//
// Each entry is a sample frame with one record invariant broken (an
// io.Check in the record's field list, or a count field the payload
// cannot hold); every one must be rejected.

struct InvalidFrame {
  std::string name;
  wire::Buffer frame;
  bool (*decodes)(const wire::Buffer&);
};

template <class Record>
bool Decodes(const wire::Buffer& frame) {
  Record out;
  return wire::Decode(frame, &out);
}

template <class Record, class Mutation>
InvalidFrame Broken(std::string name, Mutation mutate) {
  Record record = Sample<Record>();
  mutate(record);
  return {std::move(name), wire::Encode(record), &Decodes<Record>};
}

// The u32 count at byte `offset` of the frame, set to 4 billion: the
// remaining-bytes guard must refuse it before any allocation.
template <class Record>
InvalidFrame HugeCount(std::string name, size_t offset) {
  wire::Buffer frame = wire::Encode(Sample<Record>());
  for (size_t i = 0; i < 4; ++i) {
    frame[offset + i] = 0xFF;
  }
  return {std::move(name), std::move(frame), &Decodes<Record>};
}

TEST(WireInvalidTest, RecordInvariantViolationsAreRejected) {
  const InvalidFrame table[] = {
      Broken<ShardDelta>("delta crash arrays disagree",
                         [](auto& r) { r.crash_ids.pop_back(); }),
      Broken<ShardResultRecord>("result crash arrays disagree",
                                [](auto& r) { r.crash_inputs.pop_back(); }),
      Broken<ShardResultRecord>("result covered_points != covered_set size",
                                [](auto& r) { r.result.covered_points = 95; }),
      Broken<ShardDoneEvent>("shard covered_set repeats a point",
                             [](auto& r) { r.result.covered_set[2] = 3; }),
      Broken<FinishEvent>("merged covered_set descends", [](auto& r) {
        std::swap(r.result.covered_set[1], r.result.covered_set[2]);
      }),
      Broken<ShardResultRecord>(
          "result point at total_points",
          [](auto& r) { r.result.covered_set.back() = r.result.total_points; }),
      Broken<WorkerStateRecord>("worker crash arrays disagree",
                                [](auto& r) { r.crash_inputs.pop_back(); }),
      Broken<ShardHelloRecord>("hello magic",
                               [](auto& r) { r.magic = 0xDEADBEEF; }),
      Broken<CampaignManifestRecord>("manifest magic",
                                     [](auto& r) { r.magic = 0xDEADBEEF; }),
      Broken<ShardDelta>("finding kind past kLogWarning",
                         [](auto& r) {
                           r.findings.back().kind =
                               static_cast<AnomalyKind>(0xEE);
                         }),
      Broken<WorkerStateRecord>(
          "vmx check past CheckId::kCount",
          [](auto& r) { r.vmx_suppressed_checks.push_back(0xFFFF); }),
      Broken<WorkerStateRecord>(
          "vmx fixup past VmxFixupId::kCount",
          [](auto& r) { r.vmx_learned_fixups.push_back(0xFF); }),
      Broken<WorkerStateRecord>(
          "svm check past CheckId::kCount",
          [](auto& r) { r.svm_suppressed_checks.push_back(0xFFFF); }),
      Broken<SnapshotMergedStateRecord>(
          "pool bounds inverted",
          [](auto& r) { r.prior_pool_end = r.pool_end + 1; }),
      Broken<SnapshotMergedStateRecord>("pool slice shorter than its bounds",
                                        [](auto& r) { r.pool.pop_back(); }),
      Broken<CampaignManifestRecord>("manifest arch 9",
                                     [](auto& r) { r.arch = 9; }),
      Broken<CampaignManifestRecord>("manifest zero workers",
                                     [](auto& r) { r.workers = 0; }),
      Broken<ShardChildConfigRecord>("child config arch 2",
                                     [](auto& r) { r.arch = 2; }),
      Broken<ShardChildConfigRecord>(
          "child config start_epoch > epochs",
          [](auto& r) { r.start_epoch = r.epochs + 1; }),
      Broken<ShardChildConfigRecord>("child config zero workers",
                                     [](auto& r) { r.workers = 0; }),
      Broken<ShardChildConfigRecord>("child config worker == workers",
                                     [](auto& r) { r.worker = r.workers; }),
      Broken<ShardChildConfigRecord>("child config worker -1",
                                     [](auto& r) { r.worker = -1; }),
      Broken<CampaignManifestRecord>(
          "manifest snapshot_epochs > committed_epochs",
          [](auto& r) { r.snapshot_epochs = r.committed_epochs + 1; }),
      // Header, then worker i32 and three u64s.
      HugeCount<ShardDelta>("delta virgin count", 6 + 4 + 8 + 8 + 8),
      // Header, epoch u64, worker i32.
      HugeCount<FeedbackRecord>("feedback pool count", 6 + 8 + 4),
  };
  for (const InvalidFrame& invalid : table) {
    EXPECT_FALSE(invalid.decodes(invalid.frame)) << invalid.name;
  }
}

// --- Beyond one record -------------------------------------------------------

TEST(WireTest, ReferencingEncodeMatchesOwningEncode) {
  // The zero-copy overload serializes queue entries through pointers into
  // the fuzzer's corpus; its frame must be byte-identical to encoding a
  // record that owns the same entries, and exactly sized the same way.
  const ShardDelta owning = Sample<ShardDelta>();
  ShardDelta referencing = owning;
  referencing.queue_entries.clear();
  std::vector<const FuzzInput*> refs;
  for (const FuzzInput& input : owning.queue_entries) {
    refs.push_back(&input);
  }
  const wire::Buffer from_refs = wire::Encode(referencing, refs);
  EXPECT_EQ(from_refs, wire::Encode(owning));
  EXPECT_EQ(from_refs.capacity(), from_refs.size());
  // With entries present alongside refs, the refs win.
  EXPECT_EQ(wire::Encode(owning, refs), from_refs);
}

TEST(WireTest, FrameSizeCutsStreamsCorrectly) {
  const wire::Buffer a = wire::Encode(Sample<ShardDelta>());
  const wire::Buffer b = wire::Encode(Sample<FeedbackRecord>());
  wire::Buffer stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  // The head frame's size is visible as soon as the header arrived.
  size_t size = 0;
  EXPECT_FALSE(wire::FrameSize(stream.data(), 5, &size));  // Short header.
  ASSERT_TRUE(wire::FrameSize(stream.data(), wire::kFrameHeaderSize, &size));
  EXPECT_EQ(size, a.size());
  ASSERT_TRUE(wire::FrameSize(stream.data() + a.size(),
                              stream.size() - a.size(), &size));
  EXPECT_EQ(size, b.size());

  // Unknown type bytes and absurd lengths are invalid, not "wait for 4
  // GiB of payload".
  wire::Buffer bad = a;
  bad[0] = 0x7F;
  EXPECT_FALSE(wire::FrameSize(bad.data(), bad.size(), &size));
  bad = a;
  bad[2] = bad[3] = bad[4] = bad[5] = 0xFF;
  EXPECT_FALSE(wire::FrameSize(bad.data(), bad.size(), &size));
}

FuzzInput RandomInput(Rng& rng) {
  FuzzInput input(rng.Below(kFuzzInputSize + 1));
  for (uint8_t& byte : input) {
    byte = static_cast<uint8_t>(rng.Below(256));
  }
  return input;
}

void AppendRandomVirgin(Rng& rng, BitmapDelta* virgin) {
  for (size_t i = rng.Below(40); i > 0; --i) {
    virgin->Append(static_cast<uint32_t>(rng.Below(1 << 16)),
                   static_cast<uint8_t>(1 + rng.Below(255)));
  }
}

TEST(WireTest, RandomFeedbackRecordsRoundTripExactly) {
  // Property fuzz: arbitrary well-formed feedback survives the wire,
  // including empty pool inputs.
  Rng rng(0xF33DBACC);
  for (int round = 0; round < 50; ++round) {
    FeedbackRecord record;
    record.epoch = rng.Below(1 << 20);
    record.worker = static_cast<int>(rng.Below(64));
    for (size_t i = rng.Below(4); i > 0; --i) {
      record.pool_entries.push_back(RandomInput(rng));
    }
    AppendRandomVirgin(rng, &record.virgin);
    FeedbackRecord decoded;
    ASSERT_TRUE(wire::Decode(wire::Encode(record), &decoded));
    EXPECT_EQ(decoded, record);
  }
}

TEST(WireTest, RandomDeltasRoundTripExactly) {
  // Property fuzz: arbitrary well-formed deltas survive the wire, with
  // every anomaly kind and empty inputs and messages.
  Rng rng(0xD317A);
  for (int round = 0; round < 50; ++round) {
    ShardDelta delta;
    delta.worker = static_cast<int>(rng.Below(64));
    delta.epoch = rng.Below(1 << 20);
    delta.iterations = rng.Below(1 << 20);
    delta.imported = rng.Below(1 << 10);
    AppendRandomVirgin(rng, &delta.virgin);
    for (size_t i = rng.Below(20); i > 0; --i) {
      delta.covered_points.push_back(static_cast<uint32_t>(rng.Below(4096)));
    }
    for (size_t i = rng.Below(4); i > 0; --i) {
      delta.queue_entries.push_back(RandomInput(rng));
    }
    for (size_t i = rng.Below(4); i > 0; --i) {
      delta.findings.push_back(
          {static_cast<AnomalyKind>(rng.Below(7)),
           "bug-" + std::to_string(rng.Below(1000)),
           std::string(rng.Below(64), 'x')});
    }
    for (size_t i = rng.Below(3); i > 0; --i) {
      delta.crash_ids.push_back("crash-" + std::to_string(rng.Below(1000)));
      delta.crash_inputs.push_back(RandomInput(rng));
    }
    ShardDelta decoded;
    ASSERT_TRUE(wire::Decode(wire::Encode(delta), &decoded));
    EXPECT_EQ(decoded, delta);
  }
}

}  // namespace
}  // namespace neco
