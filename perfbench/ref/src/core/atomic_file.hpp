#pragma once

// Crash-safe file writes for result artifacts. The implementation lives in
// the trace layer (the lowest library, so CsvWriter/JsonWriter and every
// exporter above them share it); this header re-exports it under core:: —
// the name orchestration code and callers outside the export layer use.

#include "trace/atomic_file.hpp"

namespace xmp::core {

using trace::atomic_write_file;  // write "<path>.tmp", fsync, rename
using trace::commit_tmp_file;
using trace::tmp_path_for;

}  // namespace xmp::core
