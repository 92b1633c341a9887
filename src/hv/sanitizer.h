// Anomaly reporting — the simulated counterpart of KASAN/UBSAN, hypervisor
// assertion failures, host crashes, and kernel-log monitoring (paper
// Sections 4.5 and 5.5 / Table 6's "Detection Method" column).
#ifndef SRC_HV_SANITIZER_H_
#define SRC_HV_SANITIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace neco {

enum class AnomalyKind : uint8_t {
  kUbsan,       // Undefined Behavior Sanitizer report.
  kKasan,       // Kernel Address Sanitizer report.
  kAssertion,   // Hypervisor assertion / BUG().
  kHostCrash,   // Host unresponsive or panicked.
  kVmCrash,     // The VM terminated unexpectedly.
  kGpFault,     // General-protection fault in the host.
  kLogWarning,  // Suspicious diagnostic log line.
};

std::string_view AnomalyKindName(AnomalyKind kind);

struct AnomalyReport {
  AnomalyKind kind;
  // Stable identity of the underlying bug (used to deduplicate findings
  // and to match against Table 6).
  std::string bug_id;
  // Human-readable detail, styled after the real report lines.
  std::string message;

  bool operator==(const AnomalyReport&) const = default;
};

class SanitizerSink {
 public:
  void Report(AnomalyKind kind, std::string bug_id, std::string message) {
    reports_.push_back({kind, std::move(bug_id), std::move(message)});
  }

  const std::vector<AnomalyReport>& reports() const { return reports_; }
  bool empty() const { return reports_.empty(); }
  void Clear() { reports_.clear(); }

  // Moves out accumulated reports (agent collects per-execution).
  std::vector<AnomalyReport> Drain() {
    std::vector<AnomalyReport> out = std::move(reports_);
    reports_.clear();
    return out;
  }

 private:
  std::vector<AnomalyReport> reports_;
};

}  // namespace neco

#endif  // SRC_HV_SANITIZER_H_
