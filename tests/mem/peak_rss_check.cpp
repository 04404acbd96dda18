// Memory budget check: run a command and fail if its peak RSS exceeds a
// limit.
//
//   peak_rss_check LIMIT_MB PROGRAM [ARGS...]
//
// The child's peak resident set comes from wait4()'s rusage, so the number
// covers exactly that process, measured by the kernel. Exit codes: 0 within
// the budget, 1 over it or when the child fails, 2 on a usage error, and 77
// (ctest SKIP_RETURN_CODE) in sanitizer builds, whose shadow memory and
// allocator redzones make RSS meaningless.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XMP_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define XMP_SANITIZED 1
#endif
#endif

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s LIMIT_MB PROGRAM [ARGS...]\n", argv[0]);
    return 2;
  }
#ifdef XMP_SANITIZED
  std::printf("SKIP: sanitizer build, peak RSS is not comparable\n");
  return 77;
#endif
  const double limit_mb = std::atof(argv[1]);
  if (limit_mb <= 0) {
    std::fprintf(stderr, "bad LIMIT_MB: %s\n", argv[1]);
    return 2;
  }

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    // The run's summary is not under test; only its footprint is.
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execv(argv[2], argv + 2);
    std::perror("execv");
    _exit(127);
  }

  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) {
    std::perror("wait4");
    return 1;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "FAIL: %s did not exit 0 (status %d)\n", argv[2], status);
    return 1;
  }
  const double peak_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  const bool ok = peak_mb <= limit_mb;
  std::printf("%s: peak RSS %.1f MB, limit %.0f MB\n", ok ? "PASS" : "FAIL", peak_mb, limit_mb);
  return ok ? 0 : 1;
}
