#include "trace/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace xmp::trace {
namespace {

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

/// fsync a path opened read-only (works for both files and directories).
bool fsync_path(const std::string& path, int extra_flags = 0) {
  const int fd = ::open(path.c_str(), O_RDONLY | extra_flags);  // NOLINT
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

std::string tmp_path_for(const std::string& path) { return path + ".tmp"; }

bool commit_tmp_file(const std::string& tmp, const std::string& path, std::string* error) {
  // Data must be durable *before* the rename makes it visible, otherwise a
  // crash could publish a name pointing at unwritten blocks.
  if (!fsync_path(tmp, O_WRONLY)) {
    set_error(error, "fsync " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename " + tmp + " -> " + path);
    std::remove(tmp.c_str());
    return false;
  }
  // Durability of the rename itself is best-effort: the file content is
  // already safe, and a lost rename degrades to "run never finished".
  const auto slash = path.find_last_of('/');
  fsync_path(slash == std::string::npos ? "." : path.substr(0, slash));
  return true;
}

bool atomic_write_file(const std::string& path, const std::string& content, std::string* error) {
  const std::string tmp = tmp_path_for(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);  // NOLINT
  if (fd < 0) {
    set_error(error, "open " + tmp);
    return false;
  }
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      set_error(error, "write " + tmp);
      ::close(fd);
      std::remove(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return commit_tmp_file(tmp, path, error);
}

}  // namespace xmp::trace
