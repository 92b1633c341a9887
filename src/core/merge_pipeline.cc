#include "src/core/merge_pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/core/engine.h"
#include "src/core/state/journal.h"
#include "src/hv/coverage.h"

namespace neco {
namespace {

// An epoch's observer events in barrier-era order: per worker the corpus
// sync first, then that worker's new findings; the coverage sample last.
// Collected during the fold (under state_mu_) and dispatched after it, so
// observer code never runs under a pipeline lock.
struct PendingEvents {
  std::vector<CorpusSyncEvent> syncs;      // At most one per worker.
  std::vector<FindingEvent> findings;
  std::vector<int> order;                  // 0 = next sync, 1 = next finding.
  SampleEvent sample;
};

}  // namespace

MergePipeline::MergePipeline(MergePipelineOptions options,
                             ShardTransport* transport,
                             std::vector<CampaignObserver*> observers)
    : options_(options),
      transport_(transport),
      observers_(std::move(observers)) {
  if (options_.workers < 1) {
    options_.workers = 1;
  }
  global_covered_.assign(options_.total_points, 0);
  if (options_.restore == nullptr) {
    return;
  }
  // Snapshot-seeded start: reinstate the merged state exactly as the fold
  // of epoch horizon-1 left it, that epoch's feedback included, so the
  // first live epoch (the horizon) merges — and feeds back —
  // bit-identically to the uninterrupted run. No thread has the pipeline
  // yet; the lock is taken purely so the -Wthread-safety discipline holds
  // without waivers.
  MutexLock lock(&state_mu_);
  const SnapshotMergedStateRecord& restore = *options_.restore;
  const size_t horizon = restore.epochs_covered;
  next_epoch_ = horizon;
  finalized_ = horizon;
  global_virgin_.ApplyDelta(restore.virgin);
  covered_count_ = CoverageUnit::ApplyDelta(restore.covered, global_covered_);
  for (const AnomalyReport& report : restore.findings) {
    global_findings_.emplace(report.bug_id, report);
  }
  epoch_pool_ = restore.pool;
  epoch_virgin_ = restore.feedback_virgin;
  pool_end_ = restore.pool_end;
  series_ = restore.series;
  total_iterations_ = restore.total_iterations;
}

// Note on memory: the transport bounds *encoded* deltas in flight, but the
// drainer must pop whatever is at the head, so when shards skew (only
// possible without feedback coupling) the decoded staging map can grow to
// O(workers × epochs) deltas — fine while epochs ≈ samples (tens), and a
// delta shrinks with coverage saturation anyway. Multi-machine transports
// with long campaigns should add per-worker admission (e.g. credit-based
// publishing) before building on this.
void MergePipeline::Stage(std::unique_ptr<ShardDelta> delta,
                          wire::Buffer raw) {
  if (delta->worker < 0 || delta->worker >= options_.workers ||
      delta->epoch >= options_.epochs || delta->epoch < next_epoch_) {
    throw std::runtime_error("MergePipeline: delta for impossible shard " +
                             std::to_string(delta->worker) + " / epoch " +
                             std::to_string(delta->epoch));
  }
  std::vector<StagedDelta>& slots = staged_[delta->epoch];
  slots.resize(static_cast<size_t>(options_.workers));
  StagedDelta& slot = slots[static_cast<size_t>(delta->worker)];
  if (slot.delta != nullptr) {
    throw std::runtime_error("MergePipeline: duplicate delta from shard " +
                             std::to_string(delta->worker));
  }
  slot.delta = std::move(delta);
  slot.raw = std::move(raw);
}

void MergePipeline::StageWorkerState(
    std::unique_ptr<WorkerStateRecord> record) {
  const size_t horizon = record->epochs_covered;
  const size_t epoch = horizon == 0 ? 0 : horizon - 1;
  if (record->worker < 0 || record->worker >= options_.workers ||
      horizon == 0 || epoch < next_epoch_ || epoch >= options_.epochs ||
      !SnapshotEpoch(epoch)) {
    throw std::runtime_error(
        "MergePipeline: worker state for impossible shard " +
        std::to_string(record->worker) + " / horizon " +
        std::to_string(horizon));
  }
  std::vector<std::unique_ptr<WorkerStateRecord>>& slots =
      staged_states_[epoch];
  slots.resize(static_cast<size_t>(options_.workers));
  std::unique_ptr<WorkerStateRecord>& slot =
      slots[static_cast<size_t>(record->worker)];
  if (slot != nullptr) {
    throw std::runtime_error(
        "MergePipeline: duplicate worker state from shard " +
        std::to_string(record->worker));
  }
  slot = std::move(record);
}

void MergePipeline::FoldReadyEpochs() {
  while (true) {
    const auto it = staged_.find(next_epoch_);
    if (it == staged_.end()) {
      return;
    }
    std::vector<StagedDelta>& deltas = it->second;
    if (std::any_of(deltas.begin(), deltas.end(),
                    [](const StagedDelta& d) { return d.delta == nullptr; })) {
      return;
    }
    const size_t epoch = next_epoch_;
    // A replayed epoch was committed by a previous incarnation: the fold
    // still advances every byte of merged state (that IS the resume), but
    // its events were already delivered before the original commit's
    // OnSample returned, so they are suppressed here.
    const bool replay = epoch < options_.resume_epochs;

    PendingEvents events;
    // Journal mode: the epoch's new crash artifacts, in fold order,
    // assembled under the lock and persisted after it (and after the
    // feedback push, so no shard waits on an fsync).
    std::vector<CrashArtifactRecord> crashes;
    const bool snapshot_now =
        options_.journal != nullptr && !replay && SnapshotEpoch(epoch);
    CampaignSnapshot snapshot;
    epoch_pool_.clear();
    epoch_virgin_ = {};
    {
      MutexLock lock(&state_mu_);
      // The barrier accumulated the epoch's iteration total before
      // merging any shard, so the sample reflects every worker.
      for (const StagedDelta& staged : deltas) {
        total_iterations_ += staged.delta->iterations;
      }
      for (StagedDelta& staged : deltas) {
        ShardDelta& delta = *staged.delta;
        const int w = delta.worker;
        if (!delta.queue_entries.empty() || delta.imported != 0) {
          events.syncs.push_back(
              {epoch, w, static_cast<uint64_t>(delta.queue_entries.size()),
               delta.imported});
          events.order.push_back(0);
        }
        for (FuzzInput& input : delta.queue_entries) {
          epoch_pool_.push_back({w, std::move(input)});
        }
        for (size_t i = 0; i < delta.virgin.size(); ++i) {
          const uint32_t cell = delta.virgin.cells[i];
          const uint8_t grown =
              global_virgin_.OrCell(cell, delta.virgin.bits[i]);
          if (grown != 0) {
            epoch_virgin_.Append(cell, grown);
          }
        }
        covered_count_ +=
            CoverageUnit::ApplyDelta(delta.covered_points, global_covered_);
        for (AnomalyReport& report : delta.findings) {
          if (global_findings_.emplace(report.bug_id, report).second) {
            events.findings.push_back({epoch, w, std::move(report)});
            events.order.push_back(1);
          }
        }
        if (options_.journal != nullptr) {
          // A crash's finding report always rides the same delta (both
          // diff against per-shard "already shipped" state at the same
          // boundary), so the global map has the report by now.
          const size_t crash_count =
              std::min(delta.crash_ids.size(), delta.crash_inputs.size());
          for (size_t i = 0; i < crash_count; ++i) {
            const std::string& id = delta.crash_ids[i];
            if (options_.journal->crash_store().Known(id)) {
              continue;  // Persisted by an earlier epoch (or incarnation).
            }
            CrashArtifactRecord record;
            const auto found = global_findings_.find(id);
            record.report = found != global_findings_.end()
                                ? found->second
                                : AnomalyReport{AnomalyKind::kAssertion, id,
                                                std::string()};
            record.input = std::move(delta.crash_inputs[i]);
            record.hypervisor = options_.hypervisor;
            record.arch = options_.arch;
            record.iteration = total_iterations_;
            crashes.push_back(std::move(record));
          }
        }
      }
      const double percent =
          CoveragePercent(covered_count_, options_.total_points);
      series_.push_back({total_iterations_, percent});
      events.sample = {epoch, total_iterations_, percent, covered_count_};
      pool_end_ += epoch_pool_.size();
      finalized_ = epoch + 1;
      if (snapshot_now) {
        // Materialize the merged half of the snapshot exactly as the fold
        // just left it — including the epoch's feedback, which a restored
        // incarnation pushes again before its first live epoch.
        snapshot.epochs_covered = epoch + 1;
        SnapshotMergedStateRecord& merged = snapshot.merged;
        merged.epochs_covered = epoch + 1;
        CoverageBitmap empty;
        merged.virgin = global_virgin_.ExtractDeltaSince(empty);
        for (size_t point = 0; point < global_covered_.size(); ++point) {
          if (global_covered_[point] != 0) {
            merged.covered.push_back(static_cast<uint32_t>(point));
          }
        }
        for (const auto& [id, report] : global_findings_) {
          merged.findings.push_back(report);
        }
        merged.prior_pool_end = pool_end_ - epoch_pool_.size();
        merged.pool_end = pool_end_;
        merged.pool = epoch_pool_;
        merged.series = series_;
        merged.total_iterations = total_iterations_;
        merged.feedback_virgin = epoch_virgin_;
      }
    }

    // Feedback leaves before the crash-artifact saves, the commit and the
    // events, so shards run their next epoch while the journal fsyncs.
    // Replayed epochs push too (the shards re-execute them); the final
    // epoch has no consumer (shards read feedback *before* an epoch).
    if (options_.push_feedback && epoch + 1 < options_.epochs) {
      PushEpochFeedback(epoch);
    }

    if (options_.journal != nullptr) {
      std::vector<wire::Buffer> frames;
      frames.reserve(deltas.size());
      for (StagedDelta& staged : deltas) {
        frames.push_back(std::move(staged.raw));
      }
      // Crash artifacts first: each save is its own idempotent commit
      // (dedup by bug id), so a kill between a crash and its epoch
      // recommits the epoch — and re-saves nothing — on resume. During
      // replay the saves self-heal a store the artifacts never reached.
      for (CrashArtifactRecord& record : crashes) {
        options_.journal->SaveCrashArtifact(std::move(record));
      }
      if (replay) {
        options_.journal->VerifyEpoch(epoch, frames);
      } else {
        if (snapshot_now) {
          // Per-worker FIFO framing guarantees each worker's state frame
          // preceded its delta, so a foldable snapshot epoch has every
          // state staged; a gap means a shard skipped its contract.
          const auto states = staged_states_.find(epoch);
          if (states == staged_states_.end() ||
              std::any_of(states->second.begin(), states->second.end(),
                          [](const std::unique_ptr<WorkerStateRecord>& s) {
                            return s == nullptr;
                          })) {
            throw std::runtime_error(
                "MergePipeline: missing worker state for snapshot epoch " +
                std::to_string(epoch));
          }
          snapshot.workers.reserve(states->second.size());
          for (std::unique_ptr<WorkerStateRecord>& state : states->second) {
            snapshot.workers.push_back(std::move(*state));
          }
        }
        // Durability before visibility: the epoch is committed before any
        // of its events fire, so everything an observer ever saw survives
        // kill -9 — the resumed stream continues exactly where this one
        // stopped.
        options_.journal->CommitEpoch(epoch, frames, EpochCommitRecord{},
                                      snapshot_now ? &snapshot : nullptr);
      }
    }

    if (!replay) {
      size_t next_sync = 0;
      size_t next_finding = 0;
      for (int kind : events.order) {
        if (kind == 0) {
          const CorpusSyncEvent& event = events.syncs[next_sync++];
          Notify([&](CampaignObserver* obs) { obs->OnCorpusSync(event); });
        } else {
          const FindingEvent& event = events.findings[next_finding++];
          Notify([&](CampaignObserver* obs) { obs->OnFinding(event); });
        }
      }
      Notify([&](CampaignObserver* obs) { obs->OnSample(events.sample); });
    }

    // Replayed snapshot epochs discard their staged states here (the
    // journal already holds that snapshot); committed ones were consumed.
    staged_states_.erase(epoch);
    staged_.erase(it);
    ++next_epoch_;
  }
}

void MergePipeline::PushEpochFeedback(size_t epoch) {
  for (int w = 0; w < options_.workers; ++w) {
    FeedbackRecord record;
    record.epoch = epoch;
    record.worker = w;
    record.pool_entries.reserve(epoch_pool_.size());
    for (const PoolEntry& entry : epoch_pool_) {
      if (entry.origin != w) {
        record.pool_entries.push_back(entry.input);
      }
    }
    record.virgin = epoch_virgin_;
    if (!transport_->SendFeedback(w, wire::Encode(record))) {
      throw std::runtime_error("MergePipeline: " + transport_->error());
    }
  }
}

void MergePipeline::RunMergeLoop() {
  // Snapshot-seeded campaign: the original incarnation pushed epoch
  // horizon-1's feedback right after folding it, and the restored shards
  // (which start AT the horizon) will block reading it — so push it again
  // from the restored state before draining anything.
  if (options_.push_feedback && options_.restore != nullptr &&
      next_epoch_ > 0 && next_epoch_ < options_.epochs) {
    PushEpochFeedback(next_epoch_ - 1);
  }
  std::vector<wire::Buffer> batch;
  while (next_epoch_ < options_.epochs) {
    if (!transport_->Drain(&batch)) {
      const std::string error = transport_->error();
      if (!error.empty()) {
        // A shard died mid-campaign (or the stream corrupted): fail loudly
        // rather than leaving the campaign waiting for an epoch that can
        // never complete.
        throw std::runtime_error("MergePipeline: " + error);
      }
      return;  // Aborted.
    }
    {
      MutexLock lock(&state_mu_);
      ++stats_.flushes;
    }
    for (wire::Buffer& buffer : batch) {
      wire::RecordType type = wire::RecordType::kShardDelta;
      wire::PeekType(buffer.data(), buffer.size(), &type);
      if (type == wire::RecordType::kWorkerState) {
        // A worker's full-state frame for its snapshot epoch, published
        // right before that epoch's delta. Never journaled as part of the
        // epoch file — it lands in the snapshot file instead.
        auto state = std::make_unique<WorkerStateRecord>();
        if (!wire::Decode(buffer, state.get())) {
          throw std::runtime_error(
              "MergePipeline: corrupt WorkerStateRecord on the merge queue");
        }
        StageWorkerState(std::move(state));
        continue;
      }
      auto delta = std::make_unique<ShardDelta>();
      if (!wire::Decode(buffer, delta.get())) {
        throw std::runtime_error(
            "MergePipeline: corrupt ShardDelta on the merge queue");
      }
      // Journal mode keeps the exact frame bytes: they are the unit of
      // commit (and of replay verification).
      Stage(std::move(delta), options_.journal != nullptr
                                  ? std::move(buffer)
                                  : wire::Buffer());
    }
    FoldReadyEpochs();
  }
}

void MergePipeline::Abort() {
  aborted_ = true;
  transport_->Abort();
}

template <typename Fn>
void MergePipeline::Notify(Fn&& fn) {
  for (CampaignObserver* observer : observers_) {
    try {
      fn(observer);
    } catch (...) {
      MutexLock lock(&error_mu_);
      if (!observer_error_) {
        observer_error_ = std::current_exception();
      }
    }
  }
}

void MergePipeline::NotifyShardDone(const ShardDoneEvent& event) {
  Notify([&](CampaignObserver* obs) { obs->OnShardDone(event); });
}

void MergePipeline::NotifyFinish(const FinishEvent& event) {
  Notify([&](CampaignObserver* obs) { obs->OnFinish(event); });
}

std::exception_ptr MergePipeline::observer_error() const {
  MutexLock lock(&error_mu_);
  return observer_error_;
}

size_t MergePipeline::finalized_epochs() const {
  MutexLock lock(&state_mu_);
  return finalized_;
}

MergePipelineStats MergePipeline::stats() const {
  MutexLock lock(&state_mu_);
  return stats_;
}

// The merged-state accessors lock like every other reader. Before this
// they returned the members without state_mu_ — correct only because the
// engine calls them after the merge loop returned, but exactly the kind
// of by-convention discipline -Wthread-safety exists to replace.
const CoverageBitmap& MergePipeline::virgin() const {
  MutexLock lock(&state_mu_);
  return global_virgin_;
}

const std::vector<uint8_t>& MergePipeline::covered() const {
  MutexLock lock(&state_mu_);
  return global_covered_;
}

size_t MergePipeline::covered_points() const {
  MutexLock lock(&state_mu_);
  return covered_count_;
}

const std::map<std::string, AnomalyReport>& MergePipeline::findings() const {
  MutexLock lock(&state_mu_);
  return global_findings_;
}

const std::vector<CoverageSample>& MergePipeline::series() const {
  MutexLock lock(&state_mu_);
  return series_;
}

}  // namespace neco
