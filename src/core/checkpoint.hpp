#pragma once

// Versioned, CRC-verified simulation checkpoints (DESIGN.md §12).
//
// A checkpoint is a single `ckpt_<seq>.bin` file: a fixed header (magic,
// format version, config fingerprint, sim time, sequence number, cumulative
// write totals) followed by a CRC32-protected payload of tagged per-module
// sections. Files are published atomically (trace/atomic_file), so a crash
// mid-write leaves either the previous complete checkpoint or nothing.
//
// The Saver/Loader serialization primitives are header-only on purpose:
// transport/net/workload classes implement save_state()/restore_state()
// member hooks against them without creating a link cycle back into
// xmp_core (which already links every other library). Only the file-level
// API (write/read/probe/scan) lives in checkpoint.cpp.
//
// The Loader never throws and never reads out of bounds: any structural
// mismatch (short buffer, wrong section tag) sets a sticky error flag and
// every subsequent read returns zero. Callers check ok() once at the end —
// a corrupted-but-CRC-valid payload (impossible short of a CRC collision)
// degrades to a clean "invalid checkpoint" rejection, never UB.
//
// Pending events survive a snapshot through one codec on the same pair:
// Saver::event() writes an armed event's (t_ns, seq) key; Loader::event()
// validates it against the restored scheduler and re-arms it.

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace xmp::core {
struct ExperimentConfig;
}

namespace xmp::core::ckpt {

inline constexpr std::uint32_t kFormatVersion = 4;

/// Bytes before the payload: magic + version + fingerprint + t_ns + seq +
/// prev_written + prev_bytes + payload size + crc32. A checkpoint file is
/// exactly kHeaderBytes + payload bytes long.
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4;

/// A checkpointed event's (t_ns, seq) key, as Loader::key() returns it.
using EventKey = sim::Scheduler::PendingKey;

/// CRC-32 (IEEE 802.3, reflected) over a byte range.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n);

/// Little-endian append-only serializer for checkpoint payloads.
class Saver {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }  // raw bits: restore is exact
  void time(sim::Time t) { i64(t.ns()); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  /// Four-character section marker; the Loader verifies it in order, so a
  /// save/restore structural mismatch is caught at the exact section.
  void tag(const char t[5]) { buf_.append(t, 4); }

  /// The (t_ns, seq) key of `id`, which must be pending on `sched`.
  /// Dispatch order is a pure function of that key, so re-arming under it
  /// (Loader::event) resumes the event exactly, equal-timestamp ties
  /// included.
  void event(const sim::Scheduler& sched, sim::EventId id) {
    EventKey k;
    [[maybe_unused]] const bool live = sched.key_of(id, k);
    assert(live && "checkpointed event id is stale");
    i64(k.t_ns);
    u64(k.seq);
  }
  /// event() behind a presence flag; kInvalidEventId writes the flag alone.
  void opt_event(const sim::Scheduler& sched, sim::EventId id) {
    b(id != sim::kInvalidEventId);
    if (id != sim::kInvalidEventId) event(sched, id);
  }

  [[nodiscard]] const std::string& data() const { return buf_; }

 private:
  void raw(const void* p, std::size_t n) { buf_.append(static_cast<const char*>(p), n); }
  std::string buf_;
};

/// Bounds-checked little-endian reader with a sticky error flag.
class Loader {
 public:
  Loader(const void* data, std::size_t n)
      : p_{static_cast<const char*>(data)}, n_{n} {}
  explicit Loader(const std::string& s) : Loader(s.data(), s.size()) {}

  [[nodiscard]] bool ok() const { return ok_; }
  /// Reject the payload: values that parsed fine failed a semantic check.
  /// Sticky, exactly like a short read.
  void fail() { ok_ = false; }
  /// Bytes consumed so far.
  [[nodiscard]] std::size_t offset() const { return off_; }
  /// Fully consumed and error-free (trailing bytes mean a version skew).
  [[nodiscard]] bool done() const { return ok_ && off_ == n_; }

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  bool b() { return u8() != 0; }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, sizeof v);
    return v;
  }
  sim::Time time() { return sim::Time::nanoseconds(i64()); }
  std::string str() {
    const std::uint64_t n = u64();
    if (!ok_ || n > n_ - off_) {
      ok_ = false;
      return {};
    }
    std::string s{p_ + off_, static_cast<std::size_t>(n)};
    off_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Consume and verify a section marker written by Saver::tag().
  void tag(const char t[5]) {
    char got[4] = {};
    raw(got, 4);
    if (ok_ && std::memcmp(got, t, 4) != 0) ok_ = false;
  }

  /// Read a structure size and fail() unless it is `expected`, the size of
  /// the structure the config rebuilt. Returns ok().
  bool count(std::uint64_t expected) {
    if (u64() != expected) ok_ = false;
    return ok_;
  }

  /// Read an event key (Saver::event(), or a raw i64 t_ns + u64 seq pair)
  /// and fail() unless `sched`, restored to the snapshot's clock, could
  /// still dispatch it: a key the clock already passed() would arm an
  /// event behind it, and one at or above next_seq() was never handed out.
  EventKey key(const sim::Scheduler& sched) {
    EventKey k;
    k.t_ns = i64();
    k.seq = u64();
    if (k.seq >= sched.next_seq() || sched.passed(sim::Time::nanoseconds(k.t_ns), k.seq)) {
      ok_ = false;
    }
    return k;
  }
  /// key(), re-armed on `sched` with `cb`; kInvalidEventId (nothing armed)
  /// once the Loader has failed.
  sim::EventId event(sim::Scheduler& sched, sim::EventCallback cb) {
    const EventKey k = key(sched);
    return ok_ ? sched.arm_at(sim::Time::nanoseconds(k.t_ns), k.seq, std::move(cb))
               : sim::kInvalidEventId;
  }
  /// event() behind a presence flag (Saver::opt_event()).
  sim::EventId opt_event(sim::Scheduler& sched, sim::EventCallback cb) {
    return b() ? event(sched, std::move(cb)) : sim::kInvalidEventId;
  }

 private:
  void raw(void* out, std::size_t n) {
    if (!ok_ || n > n_ - off_) {
      ok_ = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, p_ + off_, n);
    off_ += n;
  }

  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// Fixed checkpoint file header (everything before the payload).
struct Header {
  std::uint32_t version = kFormatVersion;
  std::uint64_t fingerprint = 0;  ///< hash of the determinism-relevant config
  std::int64_t t_ns = 0;          ///< sim time of the quiescent point
  std::uint64_t seq = 0;          ///< checkpoint ordinal within the run (1-based)
  /// Cumulative checkpoint-write totals *before* this file, so a restored
  /// run reconstructs harness.ckpt.written/bytes exactly (this file itself
  /// contributes +1 and +its own size).
  std::uint64_t prev_written = 0;
  std::uint64_t prev_bytes = 0;
};

/// "ckpt_<seq>.bin"
[[nodiscard]] std::string file_name(std::uint64_t seq);

/// Serialize header+payload and publish atomically. Returns false (with a
/// one-line *error) on I/O failure.
bool write_file(const std::string& path, const Header& h, const std::string& payload,
                std::string* error = nullptr);

/// Read and fully verify a checkpoint file: magic, format version, CRC over
/// the payload, and — when `expect_fingerprint` is nonzero — the config
/// fingerprint. On any mismatch returns false with a one-line diagnostic in
/// *error; never throws, never crashes on truncated or bit-flipped input.
bool read_file(const std::string& path, std::uint64_t expect_fingerprint, Header& h,
               std::string& payload, std::string* error = nullptr);

/// read_file() without retaining the payload: cheap validity probe used to
/// pick a restore candidate.
bool probe_file(const std::string& path, std::uint64_t expect_fingerprint, Header& h,
                std::string* error = nullptr);

/// Scan `dir` for the newest (highest-seq) checkpoint that passes
/// probe_file(). Returns the empty string when none qualifies; invalid
/// candidates are reported one line each on stderr when `verbose`.
[[nodiscard]] std::string newest_valid(const std::string& dir, std::uint64_t expect_fingerprint,
                                       bool verbose = false);

/// Hash of the determinism-relevant parts of an ExperimentConfig: workload,
/// topology, scheme, routing, faults, seeds, and whether the sharded engine
/// runs (its equal-timestamp tie order differs from serial). Observability
/// outputs, invariant checking and the checkpoint settings themselves are
/// deliberately excluded so `xmpsim run --restore` can add --trace /
/// --invariants to a checkpoint taken without them.
[[nodiscard]] std::uint64_t config_fingerprint(const ExperimentConfig& cfg);

}  // namespace xmp::core::ckpt
