#pragma once

/// Umbrella header: the public API of the xmp-sim library.
///
/// Layers, bottom-up:
///   - sim:       discrete-event scheduler, virtual time, deterministic RNG
///   - net:       packets, ECN-marking queues, links, switches, hosts
///   - route:     per-switch forwarding tables + pluggable multipath policy
///   - topo:      Fat-Tree and pinned-path (testbed-style) topologies
///   - transport: TCP machinery + Reno / DCTCP / BOS congestion control
///   - mptcp:     MPTCP connections + XMP (BOS+TraSh) / LIA / OLIA coupling
///   - workload:  the paper's Permutation / Random / Incast patterns
///   - stats:     distributions, rate/gauge probes, utilization windows
///   - faults:    deterministic fault injection + runtime invariant probe
///   - core:      one-call experiment runner for the paper's evaluation
///
/// Quickstart: see examples/quickstart.cpp.

#include "core/experiment.hpp"
#include "core/worker_pool.hpp"
#include "faults/fault_controller.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariant_checker.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/path_manager.hpp"
#include "net/network.hpp"
#include "route/policy.hpp"
#include "route/route_manager.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "stats/ascii_chart.hpp"
#include "stats/distribution.hpp"
#include "stats/probes.hpp"
#include "topo/fattree.hpp"
#include "topo/pinned.hpp"
#include "transport/flow.hpp"
#include "workload/flow_manager.hpp"
#include "workload/incast.hpp"
#include "workload/permutation.hpp"
#include "workload/random_traffic.hpp"
#include "workload/scheme.hpp"
