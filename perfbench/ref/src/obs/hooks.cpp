#include "obs/hooks.hpp"

namespace xmp::obs {

namespace detail {
thread_local TimelineTracer* tls_tracer = nullptr;
thread_local SimMetrics* tls_metrics = nullptr;
}  // namespace detail

ObservationScope::ObservationScope(TimelineTracer* tracer, SimMetrics* metrics)
    : prev_tracer_{detail::tls_tracer}, prev_metrics_{detail::tls_metrics} {
  detail::tls_tracer = tracer;
  detail::tls_metrics = metrics;
}

ObservationScope::~ObservationScope() {
  detail::tls_tracer = prev_tracer_;
  detail::tls_metrics = prev_metrics_;
}

}  // namespace xmp::obs
