// Seeded state-atomic-write violations: a durable-state file written
// through ofstream and through a writable ::open, both bypassing
// AtomicWriteFile, and one read through a ::open of its own instead of
// ReadFileBytes.
#include <fcntl.h>

#include <fstream>
#include <string>

namespace neco {

void PersistIndexUnsafely(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);  // Fires.
  out << "index";
}

int CreateStateFileUnsafely(const char* path) {
  return ::open(path, O_WRONLY | O_CREAT | O_CLOEXEC, 0644);  // Fires.
}

int ReadStateFile(const char* path) {
  return ::open(path, O_RDONLY | O_CLOEXEC);  // Fires: reads too.
}

}  // namespace neco
