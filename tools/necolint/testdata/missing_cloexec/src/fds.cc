// Fixture: descriptor creation without close-on-exec. Five seeded
// fd-cloexec violations (::pipe, bare ::open, bare ::socket, bare
// ::socketpair, ::dup) and three compliant calls that must NOT fire.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

int MakeFds() {
  int fds[2];
  if (::pipe(fds) != 0) {  // Seeded violation: banned call.
    return -1;
  }
  const int plain = ::open("/dev/null", O_RDONLY);  // Seeded violation.
  const int sock =
      ::socket(AF_INET, SOCK_STREAM, 0);  // Seeded violation.
  const int copy = ::dup(plain);          // Seeded violation.
  int pair[2];
  ::socketpair(AF_UNIX, SOCK_STREAM, 0, pair);  // Seeded violation.

  // Compliant: flag named in the same statement, even across lines.
  const int good_open = ::open("/dev/null",
                               O_RDONLY | O_CLOEXEC);
  const int good_sock = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  int good_pair[2];
  ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, good_pair);
  return fds[0] + plain + sock + copy + pair[0] + good_open + good_sock +
         good_pair[0];
}
