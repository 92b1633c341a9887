// Unit tests for the delta merge pipeline (src/core/merge_pipeline.h)
// drained through an InProcTransport, exercised directly with synthetic
// wire-encoded ShardDeltas: epoch finalization from out-of-order arrivals,
// deterministic (epoch, worker) fold order, first-wins finding dedup,
// drain-size invariance, the feedback pushed each epoch and when it leaves
// relative to the journal commit, queue capacity semantics (explicit
// bound, 0 = derived default — never unbounded), backpressure, result
// slots, abort semantics, and corrupt-delta rejection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/merge_pipeline.h"
#include "src/core/state/journal.h"
#include "src/core/transport/inproc.h"
#include "src/core/wire.h"

namespace neco {
namespace {

class LogObserver : public CampaignObserver {
 public:
  void OnSample(const SampleEvent& event) override {
    std::ostringstream line;
    line << "sample epoch=" << event.epoch << " iter=" << event.iteration
         << " covered=" << event.covered_points;
    log.push_back(line.str());
  }
  void OnFinding(const FindingEvent& event) override {
    std::ostringstream line;
    line << "finding epoch=" << event.epoch << " worker=" << event.worker
         << " id=" << event.report.bug_id;
    log.push_back(line.str());
  }
  void OnCorpusSync(const CorpusSyncEvent& event) override {
    std::ostringstream line;
    line << "sync epoch=" << event.epoch << " worker=" << event.worker
         << " published=" << event.published
         << " imported=" << event.imported;
    log.push_back(line.str());
  }
  std::vector<std::string> log;
};

ShardDelta MakeDelta(int worker, uint64_t epoch, uint64_t iterations) {
  ShardDelta delta;
  delta.worker = worker;
  delta.epoch = epoch;
  delta.iterations = iterations;
  return delta;
}

FuzzInput MakeInput(uint8_t fill) { return FuzzInput(kFuzzInputSize, fill); }

// Two workers, two epochs: worker 1 covers points {1,2} and finds "bug-x"
// in epoch 0; worker 0 covers {2,3} and finds the same "bug-x" plus
// "bug-a" in epoch 0; epoch 1 adds worker 1's queue entry.
std::vector<wire::Buffer> CannedDeltas() {
  std::vector<wire::Buffer> out;
  ShardDelta w0e0 = MakeDelta(0, 0, 10);
  w0e0.virgin.Append(7, 0x01);
  w0e0.covered_points = {2, 3};
  w0e0.findings = {{AnomalyKind::kUbsan, "bug-a", "m"},
                   {AnomalyKind::kKasan, "bug-x", "from w0"}};
  ShardDelta w1e0 = MakeDelta(1, 0, 10);
  w1e0.virgin.Append(7, 0x03);  // Overlapping cell, one extra bit.
  w1e0.covered_points = {1, 2};
  w1e0.findings = {{AnomalyKind::kKasan, "bug-x", "from w1"}};
  ShardDelta w0e1 = MakeDelta(0, 1, 10);
  ShardDelta w1e1 = MakeDelta(1, 1, 10);
  w1e1.queue_entries = {MakeInput(0x11)};
  w1e1.imported = 0;
  out.push_back(wire::Encode(w0e0));
  out.push_back(wire::Encode(w1e0));
  out.push_back(wire::Encode(w0e1));
  out.push_back(wire::Encode(w1e1));
  return out;
}

InProcTransportOptions TwoWorkerTransportOptions() {
  InProcTransportOptions options;
  options.workers = 2;
  options.capacity = 16;
  return options;
}

MergePipelineOptions TwoWorkerOptions() {
  MergePipelineOptions options;
  options.workers = 2;
  options.epochs = 2;
  options.total_points = 8;
  return options;
}

// Decodes the next feedback frame queued for `worker`.
FeedbackRecord NextFeedback(InProcTransport& transport, int worker) {
  wire::Buffer frame;
  FeedbackRecord record;
  EXPECT_TRUE(transport.ReceiveFeedback(worker, &frame));
  EXPECT_TRUE(wire::Decode(frame, &record));
  return record;
}

// --- InProcTransport capacity semantics ----------------------------------

TEST(InProcTransportTest, ZeroCapacityDerivesTheDefaultNotUnbounded) {
  // capacity = 0 is the "pick for me" marker, NOT an unbounded queue: it
  // derives 2 * workers — one epoch of deltas plus the next.
  {
    InProcTransportOptions options;
    options.workers = 3;
    options.capacity = 0;
    EXPECT_EQ(InProcTransport(options).capacity(), 6u);
  }
  {
    // Explicit capacities are honored as-is, even below the derived
    // default (the drainer always pops the head, so a tiny bound
    // throttles publishers without deadlocking).
    InProcTransportOptions options;
    options.workers = 4;
    options.capacity = 2;
    EXPECT_EQ(InProcTransport(options).capacity(), 2u);
  }
}

TEST(InProcTransportTest, ExplicitCapacityBoundsTheQueue) {
  InProcTransportOptions options;
  options.workers = 2;
  options.capacity = 3;
  InProcTransport transport(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(0, i, 1))));
  }
  EXPECT_EQ(transport.stats().max_queue_depth, 3u);

  // The fourth publish must block (bounded!) until a drain frees a slot.
  std::atomic<bool> returned{false};
  std::thread publisher([&] {
    ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(0, 3, 1))));
    returned = true;
  });
  for (int i = 0; i < 100 && transport.stats().publish_blocks == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(transport.stats().publish_blocks, 1u);
  EXPECT_FALSE(returned);
  // A drain takes every queued frame.
  std::vector<wire::Buffer> batch;
  ASSERT_TRUE(transport.Drain(&batch));
  EXPECT_EQ(batch.size(), 3u);
  publisher.join();
  EXPECT_TRUE(returned);
  EXPECT_LE(transport.stats().max_queue_depth, 3u);
}

// --- Pipeline over the in-proc transport ---------------------------------

TEST(MergePipelineTest, OutOfOrderArrivalsFoldInEpochWorkerOrder) {
  // Publish everything backwards — latest epoch first, worker 1 before
  // worker 0 — then drain. The fold must still happen in (epoch, worker)
  // order: "bug-x" is credited to worker 0 (first in fold order), never
  // to worker 1, and the samples are cumulative.
  LogObserver observer;
  InProcTransport transport(TwoWorkerTransportOptions());
  MergePipeline pipeline(TwoWorkerOptions(), &transport, {&observer});
  std::vector<wire::Buffer> deltas = CannedDeltas();
  for (size_t i = deltas.size(); i > 0; --i) {
    ASSERT_TRUE(transport.Publish(std::move(deltas[i - 1])));
  }
  pipeline.RunMergeLoop();

  const std::vector<std::string> expected = {
      "finding epoch=0 worker=0 id=bug-a",
      "finding epoch=0 worker=0 id=bug-x",
      "sample epoch=0 iter=20 covered=3",
      "sync epoch=1 worker=1 published=1 imported=0",
      "sample epoch=1 iter=40 covered=3",
  };
  EXPECT_EQ(observer.log, expected);
  EXPECT_EQ(pipeline.finalized_epochs(), 2u);
  EXPECT_EQ(pipeline.covered_points(), 3u);
  EXPECT_EQ(pipeline.virgin().at(7), 0x03);
  ASSERT_EQ(pipeline.findings().count("bug-x"), 1u);
  // First-wins dedup kept worker 0's report.
  EXPECT_EQ(pipeline.findings().at("bug-x").message, "from w0");
  ASSERT_EQ(pipeline.series().size(), 2u);
  EXPECT_EQ(pipeline.series()[0].iteration, 20u);
  EXPECT_EQ(pipeline.series()[1].iteration, 40u);
}

TEST(MergePipelineTest, DrainSizeDoesNotChangeTheEventSequence) {
  // All four deltas queued before the loop starts fold from one drain; a
  // one-slot queue fed by a concurrent publisher hands them over one
  // drain at a time. The fold order is fixed, so the events are the same.
  LogObserver whole;
  {
    InProcTransport transport(TwoWorkerTransportOptions());
    MergePipeline pipeline(TwoWorkerOptions(), &transport, {&whole});
    for (wire::Buffer& delta : CannedDeltas()) {
      ASSERT_TRUE(transport.Publish(std::move(delta)));
    }
    pipeline.RunMergeLoop();
    EXPECT_EQ(pipeline.stats().flushes, 1u);
  }
  LogObserver single;
  {
    InProcTransportOptions transport_options = TwoWorkerTransportOptions();
    transport_options.capacity = 1;
    InProcTransport transport(transport_options);
    MergePipeline pipeline(TwoWorkerOptions(), &transport, {&single});
    std::thread publisher([&] {
      for (wire::Buffer& delta : CannedDeltas()) {
        ASSERT_TRUE(transport.Publish(std::move(delta)));
      }
    });
    pipeline.RunMergeLoop();
    publisher.join();
    EXPECT_EQ(pipeline.stats().flushes, 4u);
  }
  ASSERT_FALSE(whole.log.empty());
  EXPECT_EQ(whole.log, single.log);
}

TEST(MergePipelineTest, EachEpochPushesItsOwnFeedback) {
  // With push_feedback every folded epoch but the last sends each worker
  // a FeedbackRecord: the other shards' pool entries published in that
  // epoch, and only the novelty that epoch added globally.
  InProcTransport transport(TwoWorkerTransportOptions());
  MergePipelineOptions options = TwoWorkerOptions();
  options.epochs = 3;
  options.push_feedback = true;
  MergePipeline pipeline(options, &transport, {});
  ShardDelta w0e0 = MakeDelta(0, 0, 10);
  w0e0.queue_entries = {MakeInput(0xAA)};
  w0e0.virgin.Append(3, 0x01);
  ShardDelta w1e0 = MakeDelta(1, 0, 10);
  ShardDelta w0e1 = MakeDelta(0, 1, 10);
  w0e1.queue_entries = {MakeInput(0xBB)};
  w0e1.virgin.Append(4, 0x01);
  ShardDelta w1e1 = MakeDelta(1, 1, 10);
  w1e1.virgin.Append(3, 0x01);  // Already global: not novelty.
  ShardDelta w0e2 = MakeDelta(0, 2, 10);
  ShardDelta w1e2 = MakeDelta(1, 2, 10);
  for (const ShardDelta* delta : {&w0e0, &w1e0, &w0e1, &w1e1, &w0e2, &w1e2}) {
    ASSERT_TRUE(transport.Publish(wire::Encode(*delta)));
  }
  pipeline.RunMergeLoop();
  ASSERT_EQ(pipeline.finalized_epochs(), 3u);
  EXPECT_EQ(transport.stats().feedback_records, 4u);  // Epochs 0 and 1.

  // Worker 1 sees w0's epoch-0 entry and epoch 0's novelty...
  FeedbackRecord feedback = NextFeedback(transport, 1);
  EXPECT_EQ(feedback.epoch, 0u);
  EXPECT_EQ(feedback.worker, 1);
  ASSERT_EQ(feedback.pool_entries.size(), 1u);
  EXPECT_EQ(feedback.pool_entries[0][0], 0xAA);
  ASSERT_EQ(feedback.virgin.size(), 1u);
  EXPECT_EQ(feedback.virgin.cells[0], 3u);

  // ...then only epoch 1's increment.
  feedback = NextFeedback(transport, 1);
  EXPECT_EQ(feedback.epoch, 1u);
  ASSERT_EQ(feedback.pool_entries.size(), 1u);
  EXPECT_EQ(feedback.pool_entries[0][0], 0xBB);
  ASSERT_EQ(feedback.virgin.size(), 1u);
  EXPECT_EQ(feedback.virgin.cells[0], 4u);

  // A worker never receives its own publications, but does get the
  // novelty.
  for (uint64_t epoch = 0; epoch < 2; ++epoch) {
    const FeedbackRecord own = NextFeedback(transport, 0);
    EXPECT_EQ(own.epoch, epoch);
    EXPECT_EQ(own.worker, 0);
    EXPECT_TRUE(own.pool_entries.empty());
    EXPECT_EQ(own.virgin.size(), 1u);
  }
}

// Records, per feedback push to worker 0, the journal's commit point at
// the moment the frame left.
class CommitProbeTransport : public InProcTransport {
 public:
  CommitProbeTransport(InProcTransportOptions options,
                       const CampaignJournal* journal)
      : InProcTransport(options), journal_(journal) {}

  bool SendFeedback(int worker, const wire::Buffer& frame) override {
    if (worker == 0) {
      committed_at_push.push_back(journal_->committed_epochs());
    }
    return InProcTransport::SendFeedback(worker, frame);
  }

  std::vector<size_t> committed_at_push;

 private:
  const CampaignJournal* journal_;
};

TEST(MergePipelineTest, FeedbackLeavesBeforeTheEpochCommits) {
  // Epoch E's feedback is pushed right after the fold, before the journal
  // commits E: shards run their next epoch while the parent fsyncs.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("necofuzz-push-order-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    CampaignManifestRecord manifest;
    manifest.epochs = 3;
    manifest.workers = 2;
    manifest.target = "push-order";
    CampaignJournal journal(dir, manifest);
    CommitProbeTransport transport(TwoWorkerTransportOptions(), &journal);
    MergePipelineOptions options = TwoWorkerOptions();
    options.epochs = 3;
    options.push_feedback = true;
    options.journal = &journal;
    MergePipeline pipeline(options, &transport, {});
    for (uint64_t epoch = 0; epoch < 3; ++epoch) {
      for (int w = 0; w < 2; ++w) {
        ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(w, epoch, 5))));
      }
    }
    pipeline.RunMergeLoop();
    EXPECT_EQ(journal.committed_epochs(), 3u);
    EXPECT_EQ(transport.committed_at_push, (std::vector<size_t>{0, 1}));
  }
  std::filesystem::remove_all(dir);
}

TEST(MergePipelineTest, PublishBlocksAtCapacityUntilAborted) {
  InProcTransportOptions transport_options = TwoWorkerTransportOptions();
  transport_options.capacity = 2;
  InProcTransport transport(transport_options);
  MergePipeline pipeline(TwoWorkerOptions(), &transport, {});
  ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(0, 0, 1))));
  ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(1, 0, 1))));

  std::atomic<bool> returned{false};
  std::atomic<bool> result{true};
  std::thread publisher([&] {
    result = transport.Publish(wire::Encode(MakeDelta(0, 1, 1)));
    returned = true;
  });
  // With no drainer the third publish must block on the full queue...
  for (int i = 0; i < 100 && transport.stats().publish_blocks == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(transport.stats().publish_blocks, 1u);
  EXPECT_FALSE(returned);
  // ...until the pipeline's Abort cascades into the transport and
  // unblocks it with a false return.
  pipeline.Abort();
  publisher.join();
  EXPECT_TRUE(returned);
  EXPECT_FALSE(result);
}

TEST(MergePipelineTest, AbortUnblocksFeedbackWaiters) {
  InProcTransport transport(TwoWorkerTransportOptions());
  MergePipeline pipeline(TwoWorkerOptions(), &transport, {});
  std::atomic<bool> result{true};
  std::thread waiter([&] {
    wire::Buffer frame;
    result = transport.ReceiveFeedback(1, &frame);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pipeline.Abort();
  waiter.join();
  EXPECT_FALSE(result);
  EXPECT_TRUE(pipeline.aborted());
}

TEST(InProcTransportTest, ResultRecordsFillSlotsNotTheDrainQueue) {
  InProcTransport transport(TwoWorkerTransportOptions());
  ShardResultRecord record;
  record.worker = 1;
  record.result.fuzzer_stats.iterations = 42;
  ASSERT_TRUE(transport.Publish(wire::Encode(record)));
  EXPECT_EQ(transport.stats().deltas, 0u);
  ASSERT_NE(transport.shard_result(1), nullptr);
  EXPECT_EQ(transport.shard_result(1)->result.fuzzer_stats.iterations, 42u);
  EXPECT_EQ(transport.shard_result(0), nullptr);
  record.worker = 0;
  ASSERT_TRUE(transport.Publish(wire::Encode(record)));
  EXPECT_TRUE(transport.CollectResults());
  EXPECT_TRUE(transport.error().empty());
}

TEST(InProcTransportTest, InvalidResultRecordsAreRejected) {
  // A record that does not decode, names a worker out of range, or
  // repeats one fails the publish and the collection, naming the cause.
  ShardResultRecord result;
  wire::Buffer truncated = wire::Encode(result);
  truncated.pop_back();
  result.worker = 2;  // Two workers: 0 and 1.
  const wire::Buffer out_of_range = wire::Encode(result);
  result.worker = 0;
  const wire::Buffer first = wire::Encode(result);
  for (const std::vector<wire::Buffer>& frames :
       {std::vector<wire::Buffer>{truncated},
        std::vector<wire::Buffer>{out_of_range},
        std::vector<wire::Buffer>{first, first}}) {
    InProcTransport transport(TwoWorkerTransportOptions());
    for (size_t i = 0; i + 1 < frames.size(); ++i) {
      ASSERT_TRUE(transport.Publish(frames[i]));
    }
    EXPECT_FALSE(transport.Publish(frames.back()));
    EXPECT_FALSE(transport.error().empty());
    EXPECT_FALSE(transport.CollectResults());
    std::vector<wire::Buffer> batch;
    EXPECT_FALSE(transport.Drain(&batch));
  }
}

TEST(MergePipelineTest, CorruptAndImpossibleDeltasThrow) {
  {
    InProcTransport transport(TwoWorkerTransportOptions());
    MergePipeline pipeline(TwoWorkerOptions(), &transport, {});
    ASSERT_TRUE(transport.Publish({0xDE, 0xAD, 0xBE, 0xEF}));
    EXPECT_THROW(pipeline.RunMergeLoop(), std::runtime_error);
  }
  {
    // A structurally valid delta for a shard the pipeline does not have.
    InProcTransport transport(TwoWorkerTransportOptions());
    MergePipeline pipeline(TwoWorkerOptions(), &transport, {});
    ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(5, 0, 1))));
    EXPECT_THROW(pipeline.RunMergeLoop(), std::runtime_error);
  }
  {
    // Two deltas from the same shard for the same epoch.
    InProcTransport transport(TwoWorkerTransportOptions());
    MergePipeline pipeline(TwoWorkerOptions(), &transport, {});
    ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(0, 0, 1))));
    ASSERT_TRUE(transport.Publish(wire::Encode(MakeDelta(0, 0, 1))));
    EXPECT_THROW(pipeline.RunMergeLoop(), std::runtime_error);
  }
}

TEST(MergePipelineTest, DrainerRunsConcurrentlyWithPublishers) {
  // End-to-end MPSC shape: two producer threads, the drainer on a third,
  // a capacity small enough to force real backpressure.
  InProcTransportOptions transport_options = TwoWorkerTransportOptions();
  transport_options.capacity = 3;
  InProcTransport transport(transport_options);
  MergePipelineOptions options = TwoWorkerOptions();
  options.epochs = 50;
  LogObserver observer;
  MergePipeline pipeline(options, &transport, {&observer});

  std::thread drainer([&] { pipeline.RunMergeLoop(); });
  std::vector<std::thread> producers;
  for (int w = 0; w < 2; ++w) {
    producers.emplace_back([&, w] {
      for (uint64_t epoch = 0; epoch < 50; ++epoch) {
        ShardDelta delta = MakeDelta(w, epoch, 5);
        delta.covered_points = {static_cast<uint32_t>(epoch % 8)};
        ASSERT_TRUE(transport.Publish(wire::Encode(delta)));
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  drainer.join();

  EXPECT_EQ(pipeline.finalized_epochs(), 50u);
  EXPECT_EQ(pipeline.series().size(), 50u);
  EXPECT_EQ(pipeline.series().back().iteration, 500u);
  EXPECT_EQ(pipeline.covered_points(), 8u);
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.deltas, 100u);
  EXPECT_LE(stats.max_queue_depth, 3u);
  EXPECT_GT(pipeline.stats().flushes, 0u);
}

TEST(MergePipelineTest, AccessorsAreSafeWhileTheMergeLoopRuns) {
  // Regression test for the accessor lock-discipline hole: the
  // by-value accessors (covered_points(), stats()) used to return
  // guarded state without taking state_mu_, which was only safe under
  // the engine's join-before-read convention. A monitoring thread (a
  // stats poller, a progress bar) breaks that convention, so they must
  // lock — under TSan this test fails if either regresses to an
  // unlocked read. (The by-reference accessors — series(), findings(),
  // virgin(), covered() — stay join-before-read for their *contents*;
  // the poller deliberately avoids them.)
  InProcTransportOptions transport_options = TwoWorkerTransportOptions();
  InProcTransport transport(transport_options);
  MergePipelineOptions options = TwoWorkerOptions();
  options.epochs = 200;
  MergePipeline pipeline(options, &transport, {});

  std::atomic<bool> done{false};
  std::thread poller([&] {
    size_t sink = 0;
    while (!done) {
      sink += pipeline.covered_points();
      sink += static_cast<size_t>(pipeline.stats().flushes);
      sink += static_cast<size_t>(pipeline.finalized_epochs());
      std::this_thread::yield();
    }
    EXPECT_GE(sink, 0u);
  });

  std::thread drainer([&] { pipeline.RunMergeLoop(); });
  std::vector<std::thread> producers;
  for (int w = 0; w < 2; ++w) {
    producers.emplace_back([&, w] {
      for (uint64_t epoch = 0; epoch < 200; ++epoch) {
        ShardDelta delta = MakeDelta(w, epoch, 5);
        delta.covered_points = {static_cast<uint32_t>(epoch % 8)};
        ASSERT_TRUE(transport.Publish(wire::Encode(delta)));
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  drainer.join();
  done = true;
  poller.join();

  EXPECT_EQ(pipeline.finalized_epochs(), 200u);
  EXPECT_EQ(pipeline.covered_points(), 8u);
}

}  // namespace
}  // namespace neco
