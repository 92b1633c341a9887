// An observer that keeps every event record whole, in delivery order. The
// suites that compare event streams (across runs, shard modes and
// resumes) compare these with ==, so every field of every event counts,
// the per-shard and merged results of the completion events included.
#ifndef TESTS_EVENT_RECORDER_H_
#define TESTS_EVENT_RECORDER_H_

#include <algorithm>
#include <cstddef>
#include <variant>
#include <vector>

#include "src/core/engine.h"

namespace neco {

using CampaignEvent = std::variant<SampleEvent, FindingEvent, CorpusSyncEvent,
                                   ShardDoneEvent, FinishEvent>;

class EventRecorder : public CampaignObserver {
 public:
  void OnSample(const SampleEvent& e) override { events.push_back(e); }
  void OnFinding(const FindingEvent& e) override { events.push_back(e); }
  void OnCorpusSync(const CorpusSyncEvent& e) override { events.push_back(e); }
  void OnShardDone(const ShardDoneEvent& e) override { events.push_back(e); }
  void OnFinish(const FinishEvent& e) override { events.push_back(e); }

  // Recorded events of type Event.
  template <class Event>
  size_t Count() const {
    return std::count_if(events.begin(), events.end(),
                         [](const CampaignEvent& event) {
                           return std::holds_alternative<Event>(event);
                         });
  }

  std::vector<CampaignEvent> events;
};

}  // namespace neco

#endif  // TESTS_EVENT_RECORDER_H_
