#pragma once

#include <cstdint>
#include <functional>

#include "core/checkpoint.hpp"

namespace xmp::transport {

/// Supplier of application data, counted in MSS segments.
///
/// Senders pull: each *new* (non-retransmitted) segment sent corresponds to
/// exactly one granted segment. For a single-path flow the source is the
/// flow itself; for MPTCP it is the connection-level pool shared by all
/// subflows.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;

  /// Grant up to `n` segments for first transmission; returns the number
  /// actually granted (0 when no data is currently available).
  [[nodiscard]] virtual std::int64_t request_segments(std::int64_t n) = 0;

  /// `n` previously granted segments were cumulatively acknowledged.
  virtual void on_delivered(std::int64_t n) = 0;
};

/// Fixed-size pool of segments with a completion callback — the common case.
class FixedSource final : public SegmentSource {
 public:
  using DoneFn = std::function<void()>;

  explicit FixedSource(std::int64_t total_segments, DoneFn on_done = nullptr)
      : remaining_{total_segments}, total_{total_segments}, on_done_{std::move(on_done)} {}

  std::int64_t request_segments(std::int64_t n) override {
    const std::int64_t granted = n < remaining_ ? n : remaining_;
    remaining_ -= granted;
    return granted;
  }

  void on_delivered(std::int64_t n) override {
    delivered_ += n;
    if (delivered_ >= total_ && on_done_) {
      auto done = std::move(on_done_);
      on_done_ = nullptr;
      done();
    }
  }

  /// Put `n` segments back into the pool without raising the completion
  /// target — MPTCP opportunistic reinjection: data stuck behind a stalled
  /// subflow's RTO is duplicated onto its siblings. Whichever copy arrives
  /// first completes the transfer; late duplicates are harmless.
  void refund(std::int64_t n) { remaining_ += n; }

  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] std::int64_t delivered() const { return delivered_; }
  [[nodiscard]] bool complete() const { return delivered_ >= total_; }

  /// Checkpoint the pool counters. The completion callback itself is
  /// construction state; when the saved source had already fired it, the
  /// restored callback is disarmed so completion cannot fire twice.
  void checkpoint(core::ckpt::Io& io) {
    io.i64(remaining_);
    io.i64(total_);
    io.i64(delivered_);
    bool has_done = on_done_ != nullptr;
    io.b(has_done);
    if (!has_done) on_done_ = nullptr;
  }

 private:
  std::int64_t remaining_;
  std::int64_t total_;
  std::int64_t delivered_ = 0;
  DoneFn on_done_;
};

}  // namespace xmp::transport
