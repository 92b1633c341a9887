#include "src/core/repro/crash_store.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/state/commit.h"

namespace neco {
namespace {

std::string SanitizeId(const std::string& id) {
  std::string out;
  for (char c : id) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
            c == '_')
               ? c
               : '_';
  }
  return out.empty() ? "unknown" : out;
}

std::string RenderReport(const CrashArtifactRecord& record) {
  std::ostringstream text;
  text << "bug_id:     " << record.report.bug_id << "\n"
       << "detection:  " << AnomalyKindName(record.report.kind) << "\n"
       << "hypervisor: " << record.hypervisor << "\n"
       << "arch:       " << record.arch << "\n"
       << "iteration:  " << record.iteration << "\n"
       << "message:    " << record.report.message << "\n";
  return text.str();
}

}  // namespace

CrashStore::CrashStore(std::filesystem::path directory)
    : directory_(std::move(directory)) {
  if (!directory_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    Reload();
  }
}

void CrashStore::Reload() {
  std::vector<CrashArtifactRecord> loaded;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".record") {
      continue;
    }
    // Only a fully committed record decodes: the strict wire codec
    // rejects anything truncated or damaged, and the atomic-rename
    // protocol means a half-written record never carries this name.
    std::vector<uint8_t> bytes;
    CrashArtifactRecord record;
    if (ReadFileBytes(it->path(), &bytes) &&
        wire::Decode(bytes.data(), bytes.size(), &record)) {
      loaded.push_back(std::move(record));
    }
  }
  std::sort(loaded.begin(), loaded.end(),
            [](const CrashArtifactRecord& a, const CrashArtifactRecord& b) {
              return a.seq < b.seq;
            });
  for (CrashArtifactRecord& record : loaded) {
    if (!known_ids_.insert(record.report.bug_id).second) {
      continue;  // A duplicate id can only be operator-planted; first wins.
    }
    next_seq_ = std::max(next_seq_, record.seq + 1);
    records_.push_back(std::move(record));
  }
}

std::filesystem::path CrashStore::PathFor(const CrashArtifactRecord& record,
                                          const char* extension) const {
  return directory_ / (std::to_string(record.seq) + "-" +
                       SanitizeId(record.report.bug_id) + extension);
}

bool CrashStore::Save(CrashArtifactRecord record) {
  if (Known(record.report.bug_id)) {
    return false;
  }
  record.seq = next_seq_;
  if (!directory_.empty()) {
    std::string error;
    // Derived files first, the authoritative .record last: its rename is
    // the commit point, so a kill between any two writes leaves orphans
    // that the next Reload() ignores — never a torn pair behind a
    // committed marker.
    const std::string report = RenderReport(record);
    const wire::Buffer frame = wire::Encode(record);
    if (!AtomicWriteFile(PathFor(record, ".input"), record.input.data(),
                         record.input.size(), &error) ||
        !AtomicWriteFile(PathFor(record, ".report"),
                         reinterpret_cast<const uint8_t*>(report.data()),
                         report.size(), &error) ||
        !AtomicWriteFile(PathFor(record, ".record"), frame.data(),
                         frame.size(), &error)) {
      throw std::runtime_error("CrashStore: " + error);
    }
  }
  ++next_seq_;
  known_ids_.insert(record.report.bug_id);
  records_.push_back(std::move(record));
  return true;
}

std::optional<FuzzInput> CrashStore::LoadInput(size_t index) const {
  std::vector<uint8_t> bytes;
  if (index >= records_.size() || directory_.empty() ||
      !ReadFileBytes(PathFor(records_[index], ".input"), &bytes)) {
    return std::nullopt;
  }
  return bytes;
}

}  // namespace neco
