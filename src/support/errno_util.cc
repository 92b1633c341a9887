#include "src/support/errno_util.h"

#include <string.h>

#include <cstdio>

namespace neco {
namespace {

// Overload resolution untangles the strerror_r signature split without
// any #ifdef on feature-test macros (glibc's depend on inclusion order):
// the XSI variant returns int (0 on success), the GNU variant returns the
// message pointer — which is `buf` only when the message was actually
// copied there.

// XSI: int strerror_r(int, char*, size_t). Unused where the C library
// provides the GNU variant (glibc), hence [[maybe_unused]].
[[maybe_unused]] const char* ResolveStrerrorResult(int rc, const char* buf) {
  return rc == 0 ? buf : nullptr;
}

// GNU: char* strerror_r(int, char*, size_t).
const char* ResolveStrerrorResult(const char* result, const char* /*buf*/) {
  return result;
}

}  // namespace

std::string SafeStrerror(int err) {
  char buf[256];
  buf[0] = '\0';
  const char* text = ResolveStrerrorResult(::strerror_r(err, buf, sizeof(buf)),
                                           buf);
  if (text != nullptr && text[0] != '\0') {
    return text;
  }
  char fallback[64];
  std::snprintf(fallback, sizeof(fallback), "Unknown error %d", err);
  return fallback;
}

}  // namespace neco
