#pragma once

// Versioned, CRC-verified simulation checkpoints (DESIGN.md §12).
//
// A checkpoint is a single `ckpt_<seq>.bin` file: a fixed header (magic,
// format version, config fingerprint, sim time, sequence number, cumulative
// write totals) followed by a CRC32-protected payload of tagged per-module
// sections. Files are published atomically (trace/atomic_file), so a crash
// mid-write leaves either the previous complete checkpoint or nothing.
//
// The Io codec is header-only on purpose: transport/net/workload classes
// implement their `checkpoint(Io&)` member against it without creating a
// link cycle back into xmp_core (which already links every other library).
// Only the file-level API (write/read/probe/scan) lives in checkpoint.cpp.
//
// One function per module states its snapshot layout once, for both
// directions, so a field cannot be saved without being restored (or in
// another order). Restore-only side effects sit in `if (io.loading())`
// blocks. Modules that rebuild on restore what their save only walks
// (flow records, fault channels, metric names, tracer rings) keep their
// scalar prefix in the shared function and rebuild in a loading branch, so
// no module keeps a separate save/restore pair (DESIGN.md §12).
//
// A loading pass never throws and never reads out of bounds: any structural
// mismatch (short buffer, wrong section tag, a value its member cannot
// hold) sets a sticky error flag and every subsequent read yields zero.
// Callers check ok() once at the end — a corrupted-but-CRC-valid payload
// (impossible short of a CRC collision) degrades to a clean "invalid
// checkpoint" rejection, never UB.
//
// Pending events survive a snapshot through one codec on the same pass:
// Io::event() writes an armed event's (t_ns, seq) key when saving, and
// validates it against the restored scheduler and re-arms it when loading.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace xmp::core {
struct ExperimentConfig;
}

namespace xmp::core::ckpt {

inline constexpr std::uint32_t kFormatVersion = 5;

/// Bytes before the payload: magic + version + fingerprint + t_ns + seq +
/// prev_written + prev_bytes + payload size + crc32. A checkpoint file is
/// exactly kHeaderBytes + payload bytes long.
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4;

/// A checkpointed event's (t_ns, seq) key, as Io::key() reads it.
using EventKey = sim::Scheduler::PendingKey;

/// CRC-32 (IEEE 802.3, reflected) over a byte range.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n);

/// One checkpoint pass over a payload, in the direction fixed when it is
/// built: `Io{}` saves, `Io{data}` loads. Each module states its layout once,
/// in a `checkpoint(Io&)` whose field calls take references: saving appends
/// the value, loading assigns it. Little-endian; the width on disk is the
/// method's, so a narrower member (an int under i64()) keeps the wider
/// encoding, and a loaded value that does not fit the member fails the pass.
class Io {
 public:
  /// A saving pass.
  Io() = default;
  /// A loading pass over `n` bytes at `data`.
  Io(const void* data, std::size_t n)
      : p_{static_cast<const char*>(data)}, n_{n}, loading_{true} {}
  explicit Io(const std::string& s) : Io(s.data(), s.size()) {}

  [[nodiscard]] bool loading() const { return loading_; }
  [[nodiscard]] bool saving() const { return !loading_; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// Reject the payload: values that parsed fine failed a semantic check.
  /// Sticky, exactly like a short read.
  void fail() { ok_ = false; }
  /// Bytes consumed (loading) or written (saving) so far.
  [[nodiscard]] std::size_t offset() const { return loading_ ? off_ : buf_.size(); }
  /// Error-free and, when loading, fully consumed (trailing bytes mean a
  /// version skew).
  [[nodiscard]] bool done() const { return ok_ && (!loading_ || off_ == n_); }
  /// The bytes a saving pass wrote.
  [[nodiscard]] const std::string& data() const { return buf_; }

  template <typename T>
  void u8(T& v) { field<std::uint8_t>(v); }
  template <typename T>
  void u16(T& v) { field<std::uint16_t>(v); }
  template <typename T>
  void u32(T& v) { field<std::uint32_t>(v); }
  template <typename T>
  void u64(T& v) { field<std::uint64_t>(v); }
  template <typename T>
  void i64(T& v) { field<std::int64_t>(v); }
  /// One byte; any nonzero byte loads as true.
  void b(bool& v) {
    std::uint8_t x = v ? 1 : 0;
    raw(&x, 1);
    v = x != 0;
  }
  void f64(double& v) { raw(&v, sizeof v); }  // raw bits: restore is exact
  void time(sim::Time& t) {
    std::int64_t ns = t.ns();
    raw(&ns, sizeof ns);
    t = sim::Time::nanoseconds(ns);
  }
  void str(std::string& s) {
    std::uint64_t n = s.size();
    raw(&n, sizeof n);
    if (!loading_) {
      buf_.append(s);
    } else if (!ok_ || n > n_ - off_) {
      ok_ = false;
      s.clear();
    } else {
      s.assign(p_ + off_, static_cast<std::size_t>(n));
      off_ += static_cast<std::size_t>(n);
    }
  }
  /// Four-character section marker, verified in order when loading, so a
  /// layout mismatch is caught at the exact section.
  void tag(const char t[5]) {
    char got[4] = {t[0], t[1], t[2], t[3]};
    raw(got, 4);
    if (ok_ && std::memcmp(got, t, 4) != 0) ok_ = false;
  }
  /// The size of a structure the config rebuilt: saving writes `expected`;
  /// loading fails unless it reads `expected`. Returns ok().
  bool count(std::uint64_t expected) {
    std::uint64_t n = expected;
    u64(n);
    if (n != expected) ok_ = false;
    return ok_;
  }
  /// A counted vector: saving writes size() and visits each element;
  /// loading reads the count and appends each element before visiting it.
  /// Every visit must read at least one byte, so a count past the payload
  /// ends in a short read, never in a huge allocation.
  template <typename T, typename Fn>
  void seq(std::vector<T>& v, Fn&& each) {
    std::uint64_t n = v.size();
    u64(n);
    if (!loading_) {
      for (T& x : v) each(x);
      return;
    }
    v.clear();
    for (std::uint64_t i = 0; i < n && ok_; ++i) each(v.emplace_back());
  }
  /// An unordered map under u64 keys, in key order so the bytes are stable.
  /// Loading refills the map, inserting each key before visiting its value.
  template <typename Map, typename Fn>
  void sorted(Map& m, Fn&& each) {
    std::vector<std::uint64_t> keys;
    if (loading_) {
      m.clear();
    } else {
      keys.reserve(m.size());
      for (const auto& kv : m) keys.push_back(kv.first);
      std::sort(keys.begin(), keys.end());
    }
    seq(keys, [&](std::uint64_t& k) {
      u64(k);
      each(m[static_cast<typename Map::key_type>(k)]);
    });
  }
  /// A generator's raw state: a restored stream continues bit-identically.
  void rng(sim::Rng& r) {
    std::array<std::uint64_t, 4> st = r.state();
    for (auto& w : st) u64(w);
    if (loading_) r.set_state(st);
  }

  /// An event key. Loading fails unless `sched`, restored to the snapshot's
  /// clock, could still dispatch it: a key the clock already passed() would
  /// arm an event behind it, and one at or above next_seq() was never
  /// handed out.
  void key(const sim::Scheduler& sched, EventKey& k) {
    i64(k.t_ns);
    u64(k.seq);
    if (loading_ &&
        (k.seq >= sched.next_seq() || sched.passed(sim::Time::nanoseconds(k.t_ns), k.seq))) {
      ok_ = false;
    }
  }
  /// The (t_ns, seq) key of `id`, which must be pending on `sched` when
  /// saving. Dispatch order is a pure function of that key, so loading
  /// re-arms `cb` under it and resumes the event exactly, equal-timestamp
  /// ties included; `id` becomes the new event (kInvalidEventId, nothing
  /// armed, once the pass has failed). `cb` is not used when saving.
  template <typename Fn>
  void event(sim::Scheduler& sched, sim::EventId& id, Fn&& cb) {
    EventKey k;
    if (!loading_) {
      [[maybe_unused]] const bool live = sched.key_of(id, k);
      assert(live && "checkpointed event id is stale");
    }
    key(sched, k);
    if (loading_) {
      id = ok_ ? sched.arm_at(sim::Time::nanoseconds(k.t_ns), k.seq,
                              sim::EventCallback{std::forward<Fn>(cb)})
               : sim::kInvalidEventId;
    }
  }
  /// event() behind a presence flag; kInvalidEventId is the flag alone.
  template <typename Fn>
  void opt_event(sim::Scheduler& sched, sim::EventId& id, Fn&& cb) {
    bool armed = id != sim::kInvalidEventId;
    b(armed);
    if (armed) {
      event(sched, id, std::forward<Fn>(cb));
    } else if (loading_) {
      id = sim::kInvalidEventId;
    }
  }

 private:
  /// A member of type T stored as W.
  template <typename W, typename T>
  void field(T& v) {
    W w = static_cast<W>(v);
    raw(&w, sizeof w);
    if (!loading_) return;
    v = static_cast<T>(w);
    if (static_cast<W>(v) != w) ok_ = false;
  }
  /// Append `n` bytes from `p`, or fill them from the payload: never past
  /// its end, and with zeros once the pass has failed.
  void raw(void* p, std::size_t n) {
    if (!loading_) {
      buf_.append(static_cast<const char*>(p), n);
    } else if (!ok_ || n > n_ - off_) {
      ok_ = false;
      std::memset(p, 0, n);
    } else {
      std::memcpy(p, p_ + off_, n);
      off_ += n;
    }
  }

  std::string buf_;
  const char* p_ = nullptr;
  std::size_t n_ = 0;
  std::size_t off_ = 0;
  bool loading_ = false;
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
/// topology, scheme, routing, faults and seeds. The worker count is left
/// out (results do not depend on it), and so are the observability
/// outputs, invariant checking and the checkpoint settings themselves, so
/// `xmpsim run --restore` can add --trace / --invariants to a checkpoint
/// taken without them.
[[nodiscard]] std::uint64_t config_fingerprint(const ExperimentConfig& cfg);

}  // namespace xmp::core::ckpt
