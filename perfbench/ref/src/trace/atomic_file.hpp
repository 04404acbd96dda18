#pragma once

#include <string>

namespace xmp::trace {

/// The temp name every crash-safe writer stages into: "<path>.tmp". A
/// reader never sees this name appear at `path`, so a crash at any instant
/// leaves either the previous complete file or nothing — never a torn one.
[[nodiscard]] std::string tmp_path_for(const std::string& path);

/// Publish a fully-written temp file as `path`: fsync(tmp), rename(tmp,
/// path), then best-effort fsync of the containing directory so the rename
/// itself survives a power cut. Returns false (and sets *error) if the
/// temp file cannot be synced or renamed; the temp file is removed on
/// failure.
bool commit_tmp_file(const std::string& tmp, const std::string& path,
                     std::string* error = nullptr);

/// Crash-safe whole-file write: `content` goes to "<path>.tmp" and is
/// published via commit_tmp_file. This is the primitive behind every
/// result-file export (summary JSON, drops CSV, metrics, traces, sweep
/// manifests); an interrupted run can leave a stale *.tmp but never a
/// half-written artifact under the real name.
bool atomic_write_file(const std::string& path, const std::string& content,
                       std::string* error = nullptr);

}  // namespace xmp::trace
