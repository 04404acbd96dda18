#pragma once

// Thread-local observation gates — the single branch every instrumentation
// site pays when observation is disabled.
//
// The simulator is single-threaded per run but a core::WorkerPool can run
// independent runs on concurrent threads (the Table 1/2 benches), so the
// active tracer/metrics bundle is a thread_local pointer: each run installs its own observers on
// its own thread via ObservationScope (RAII), and runs never see each
// other's instruments. A disabled run costs one TLS load + one predictable
// branch per site; no simulation state is ever touched by observation, so
// traced and untraced runs are bit-identical (guarded by
// tests/obs/obs_determinism_test.cpp).

namespace xmp::obs {

class TimelineTracer;
struct SimMetrics;

namespace detail {
extern thread_local TimelineTracer* tls_tracer;
extern thread_local SimMetrics* tls_metrics;
}  // namespace detail

/// Active tracer for this thread, or nullptr when tracing is disabled.
[[nodiscard]] inline TimelineTracer* tracer() { return detail::tls_tracer; }

/// Active well-known metrics bundle for this thread, or nullptr.
[[nodiscard]] inline SimMetrics* metrics() { return detail::tls_metrics; }

/// Installs a tracer and/or metrics bundle for the current thread for the
/// scope's lifetime; restores the previous observers on destruction (scopes
/// nest). Either pointer may be null.
class ObservationScope {
 public:
  ObservationScope(TimelineTracer* tracer, SimMetrics* metrics);
  ~ObservationScope();

  ObservationScope(const ObservationScope&) = delete;
  ObservationScope& operator=(const ObservationScope&) = delete;

 private:
  TimelineTracer* prev_tracer_;
  SimMetrics* prev_metrics_;
};

}  // namespace xmp::obs
