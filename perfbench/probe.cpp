// perfbench_probe — times calls into the simulator's module APIs for the
// benchmark's traced run (perfbench/run.py). It builds the same
// ExperimentConfig the xmpsim CLI builds from the scenario flags the
// benchmark uses, so its in-process run must export a summary that is byte
// for byte the CLI's; run.py checks that.
//
//   perfbench_probe exec --report=PATH -- PROGRAM ARGS...
//       Run one program and write its wall time, user+sys CPU, peak RSS and
//       exit code to --report as JSON. Launching from this small process
//       keeps the launcher's own memory out of the child's peak RSS: Linux
//       folds the pre-exec image's high-water mark into ru_maxrss, and a
//       Python launcher's image is larger than a small simulation's.
//
//   perfbench_probe layers SCENARIO --pending=N --cdf=FILE --json=PATH
//                   --spans=PATH
//       Time each layer through its public API (topology build, route
//       install, scheduler hold operations at N pending events, ECN queue
//       operations, a 10 MB BOS and XMP-2 two-host transfer, CDF sampling),
//       then run the scenario in process with core::run_experiment, export
//       its summary to --json, and read back its newest snapshot if it
//       wrote any. Prints one JSON object of metrics and writes every timed
//       call as a span (name, start, end, parent) to --spans.
//
// SCENARIO is the subset of `xmpsim run` flags the benchmark's workloads
// use: --pattern=permutation --scheme=xmp --k --seed --duration --rounds
// --shards --workload --load --hybrid --hybrid-bg --hybrid-fg
// --checkpoint-every --checkpoint-dir. Any other flag is refused.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "core/xmp.hpp"
#include "net/queue.hpp"
#include "workload/empirical.hpp"
#include "workload/traffic_matrix.hpp"

namespace {

using namespace xmp;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - kOrigin).count(); }

/// In-memory span log, written out once at the end.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// RAII span: opens on construction, closes on destruction, and nests
  /// under whichever span was open when it started.
  class Scope {
   public:
    Scope(Spans& log, const std::string& name) : log_{log}, id_{log.open(name)} {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& log_;
    int id_;
  };

  bool write(const std::string& path) const {
    std::ofstream out{path};
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof buf, "\"start\": %.9f, \"end\": %.9f, \"parent\": %d}", s.start,
                    s.end, s.parent);
      out << (i ? ",\n " : "\n ") << "{\"name\": \"" << s.name << "\", " << buf;
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  int open(const std::string& name) {
    spans_.push_back({name, now_s(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int id) {
    spans_[id].end = now_s();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_probe: %s\n", msg.c_str());
  std::exit(2);
}

using Flags = std::map<std::string, std::string>;

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) die("unexpected argument " + a);
    const auto eq = a.find('=');
    flags[a.substr(2, eq == std::string::npos ? std::string::npos : eq - 2)] =
        eq == std::string::npos ? "" : a.substr(eq + 1);
  }
  return flags;
}

/// Pops a flag's value; `fallback` when absent.
std::string take(Flags& f, const std::string& key, const std::string& fallback = "") {
  const auto it = f.find(key);
  if (it == f.end()) return fallback;
  std::string v = it->second;
  f.erase(it);
  return v;
}

double take_num(Flags& f, const std::string& key, double fallback) {
  const std::string v = take(f, key);
  if (v.empty()) return fallback;
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') die("bad --" + key + "=" + v);
  return d;
}

/// The ExperimentConfig `xmpsim run` builds from the same flags (see
/// config_from in apps/xmpsim.cpp), for the flags the benchmark uses.
core::ExperimentConfig scenario_from(Flags& f) {
  core::ExperimentConfig cfg;
  const std::string pattern = take(f, "pattern");
  const std::string workload = take(f, "workload");
  const bool hybrid = f.count("hybrid") > 0;
  f.erase("hybrid");
  if (take(f, "scheme", "xmp") != "xmp") die("only --scheme=xmp is supported");
  cfg.fat_tree_k = static_cast<int>(take_num(f, "k", 8));
  cfg.seed = static_cast<std::uint64_t>(take_num(f, "seed", 1));
  cfg.duration = sim::Time::seconds(take_num(f, "duration", 0.5));
  cfg.permutation_rounds = static_cast<int>(take_num(f, "rounds", 2));
  cfg.shards = static_cast<int>(take_num(f, "shards", 0));
  cfg.offered_load = take_num(f, "load", 0.0);
  cfg.checkpoint.every = sim::Time::seconds(take_num(f, "checkpoint-every", 0.0));
  cfg.checkpoint.dir = take(f, "checkpoint-dir", ".");
  if (hybrid) {
    cfg.hybrid.enabled = true;
    cfg.hybrid.bg_flows = static_cast<int>(take_num(f, "hybrid-bg", cfg.hybrid.bg_flows));
    cfg.hybrid.fg_flows = static_cast<int>(take_num(f, "hybrid-fg", cfg.hybrid.fg_flows));
    cfg.pattern = core::Pattern::Permutation;
  } else if (!workload.empty()) {
    auto spec = std::make_shared<workload::WorkloadSpec>();
    std::string err;
    if (!workload::WorkloadSpec::parse_file(workload, *spec, &err)) die("bad --workload: " + err);
    cfg.pattern = core::Pattern::Workload;
    cfg.workload = std::move(spec);
  } else if (pattern == "permutation") {
    cfg.pattern = core::Pattern::Permutation;
  } else {
    die("need --pattern=permutation, --workload=FILE or --hybrid");
  }
  return cfg;
}

void require_consumed(const Flags& f) {
  if (!f.empty()) die("unknown flag --" + f.begin()->first);
}

/// Median wall time of `reps` calls of fn(), each under its own span.
template <typename Fn>
double timed(Spans& spans, const std::string& name, int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    Spans::Scope s{spans, name};
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Two hosts joined by one fabric-grade link each way (1 Gbps, 20 us, 100
/// packet ECN queue marking at K = 10): the smallest world a transfer needs.
struct TwoHosts {
  sim::Scheduler sched;
  net::Network netw{sched};
  net::Host* a = nullptr;
  net::Host* b = nullptr;

  TwoHosts() {
    net::QueueConfig q;
    q.kind = net::QueueConfig::Kind::EcnThreshold;
    q.capacity_packets = 100;
    q.mark_threshold = 10;
    a = &netw.add_host();
    b = &netw.add_host();
    net::Link& ab = netw.add_link(*b, 1'000'000'000, sim::Time::microseconds(20), q);
    net::Link& ba = netw.add_link(*a, 1'000'000'000, sim::Time::microseconds(20), q);
    a->attach_uplink(ab);
    b->attach_uplink(ba);
  }
};

constexpr std::int64_t kTransferBytes = 10'000'000;

/// Wall ns per delivered segment of one 10 MB single-path BOS transfer.
double bos_segment_ns() {
  TwoHosts w;
  transport::Flow::Config fc;
  fc.id = 1;
  fc.size_bytes = kTransferBytes;
  fc.cc.kind = transport::CcConfig::Kind::Bos;
  transport::Flow f{w.sched, *w.a, *w.b, fc};
  const double t0 = now_s();
  f.start();
  w.sched.run_until(sim::Time::seconds(5.0));
  const double dt = now_s() - t0;
  if (!f.complete()) die("BOS transfer did not complete");
  return dt * 1e9 / static_cast<double>(f.sender().delivered_segments());
}

/// Same for one 10 MB XMP-2 connection (BOS + TraSh coupling).
double xmp2_segment_ns() {
  TwoHosts w;
  mptcp::MptcpConnection::Config mc;
  mc.id = 1;
  mc.size_bytes = kTransferBytes;
  mc.n_subflows = 2;
  mc.coupling = mptcp::Coupling::Xmp;
  mptcp::MptcpConnection c{w.sched, *w.a, *w.b, mc};
  const double t0 = now_s();
  c.start();
  w.sched.run_until(sim::Time::seconds(5.0));
  const double dt = now_s() - t0;
  if (!c.complete()) die("XMP-2 transfer did not complete");
  std::int64_t segments = 0;
  for (int i = 0; i < c.n_subflows(); ++i) segments += c.subflow_sender(i).delivered_segments();
  return dt * 1e9 / static_cast<double>(segments);
}

/// Hold model: every dispatched event schedules one successor, so the
/// pending set stays at its initial size. Returns ns per dispatch+schedule.
double scheduler_hold_ns(std::size_t pending, std::uint64_t seed) {
  // Delays uniform in [0, 2 ms): the spread of a fabric's pending RTOs,
  // deliveries and ACK timers.
  struct Hold {
    sim::Scheduler* sched;
    sim::Rng* rng;
    void operator()() const {
      const auto delay = static_cast<std::int64_t>(rng->uniform_u64(2'000'000));
      sched->schedule_in(sim::Time::nanoseconds(delay), Hold{sched, rng});
    }
  };
  sim::Scheduler sched;
  sim::Rng rng{seed};
  for (std::size_t i = 0; i < pending; ++i) {
    const auto at = static_cast<std::int64_t>(rng.uniform_u64(2'000'000));
    sched.schedule_at(sim::Time::nanoseconds(at), Hold{&sched, &rng});
  }
  constexpr int kOps = 2'000'000;
  const double t0 = now_s();
  for (int i = 0; i < kOps; ++i) sched.step_one();
  return (now_s() - t0) * 1e9 / kOps;
}

/// ns per enqueue+dequeue pair on an ECN threshold queue held at its
/// marking threshold, so every enqueue takes the marking branch.
double queue_op_ns() {
  net::EcnThresholdQueue q{100, 10};
  net::Packet p;
  p.ecn = net::Ecn::Ect;
  for (int i = 0; i < 10; ++i) {
    net::Packet in = p;
    q.enqueue(std::move(in), sim::Time::zero());
  }
  constexpr int kOps = 5'000'000;
  std::size_t kept = 0;
  const double t0 = now_s();
  for (int i = 0; i < kOps; ++i) {
    net::Packet in = p;
    kept += q.enqueue(std::move(in), sim::Time::zero()) ? 1 : 0;
    net::Packet out;
    kept += q.dequeue(out, sim::Time::zero()) ? 1 : 0;
  }
  const double dt = now_s() - t0;
  if (kept != 2u * kOps) die("queue refused a packet below capacity");
  return dt * 1e9 / kOps;
}

int cmd_layers(Flags f) {
  const auto pending = static_cast<std::size_t>(take_num(f, "pending", 1000));
  const std::string cdf_path = take(f, "cdf");
  const std::string json_path = take(f, "json");
  const std::string spans_path = take(f, "spans");
  const core::ExperimentConfig cfg = scenario_from(f);
  require_consumed(f);
  if (cdf_path.empty() || json_path.empty() || spans_path.empty()) {
    die("layers needs --cdf, --json and --spans");
  }

  Spans spans;
  std::map<std::string, double> m;
  {
    Spans::Scope root{spans, "probe"};

    // topo + route: the world build run_experiment starts with.
    topo::FatTree::Config tc;
    tc.k = cfg.fat_tree_k;
    tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
    tc.queue.capacity_packets = cfg.queue_capacity;
    tc.queue.mark_threshold = cfg.mark_threshold;
    std::vector<double> build, install;
    for (int r = 0; r < 5; ++r) {
      Spans::Scope world{spans, "topo_route"};
      sim::Scheduler sched;
      net::Network netw{sched};
      std::unique_ptr<topo::FatTree> tree;
      {
        Spans::Scope s{spans, "topo.FatTree"};
        const double t0 = now_s();
        tree = std::make_unique<topo::FatTree>(netw, tc);
        build.push_back(now_s() - t0);
      }
      route::RouteManager routes{sched, netw, cfg.routing};
      {
        Spans::Scope s{spans, "route.install_all"};
        const double t0 = now_s();
        routes.install_all();
        install.push_back(now_s() - t0);
      }
      m["topo.links"] = static_cast<double>(netw.links().size());
    }
    m["topo.build_s"] = median(build);
    m["route.install_s"] = median(install);

    std::vector<double> v;
    timed(spans, "sim.Scheduler", 3, [&] { v.push_back(scheduler_hold_ns(pending, cfg.seed)); });
    m["sim.sched_op_ns"] = median(v);

    v.clear();
    timed(spans, "net.EcnThresholdQueue", 3, [&] { v.push_back(queue_op_ns()); });
    m["net.queue_op_ns"] = median(v);

    v.clear();
    timed(spans, "transport.Flow", 9, [&] { v.push_back(bos_segment_ns()); });
    m["transport.seg_ns_bos"] = median(v);

    v.clear();
    timed(spans, "mptcp.MptcpConnection", 9, [&] { v.push_back(xmp2_segment_ns()); });
    m["mptcp.seg_ns_xmp2"] = median(v);

    workload::EmpiricalCdf cdf;
    std::string err;
    if (!workload::EmpiricalCdf::parse_file(cdf_path, cdf, &err)) die("bad --cdf: " + err);
    v.clear();
    std::int64_t sink = 0;
    timed(spans, "workload.EmpiricalCdf", 3, [&] {
      constexpr int kDraws = 2'000'000;
      sim::Rng rng{cfg.seed};
      const double t0 = now_s();
      for (int i = 0; i < kDraws; ++i) sink += cdf.sample(rng);
      v.push_back((now_s() - t0) * 1e9 / kDraws);
    });
    if (sink <= 0) die("CDF sampling returned no bytes");
    m["workload.cdf_sample_ns"] = median(v);

    core::ExperimentResults res;
    m["core.run_s"] =
        timed(spans, "core.run_experiment", 1, [&] { res = core::run_experiment(cfg); });
    m["core.export_s"] = timed(spans, "core.export_summary_json", 1,
                               [&] { core::export_summary_json(cfg, res, json_path); });

    m["core.ckpt.read_ms"] = 0.0;
    if (!res.ckpt.last_path.empty()) {
      const std::uint64_t fp = core::ckpt::config_fingerprint(cfg);
      bool ok = true;
      m["core.ckpt.read_ms"] = 1e3 * timed(spans, "core.ckpt.read_file", 5, [&] {
        core::ckpt::Header h;
        std::string payload;
        ok = ok && core::ckpt::read_file(res.ckpt.last_path, fp, h, payload, nullptr);
      });
      if (!ok) die("snapshot " + res.ckpt.last_path + " failed verification");
    }
  }
  if (!spans.write(spans_path)) die("cannot write " + spans_path);

  std::printf("{");
  const char* sep = "";
  for (const auto& [k, val] : m) {
    std::printf("%s\"%s\": %.9g", sep, k.c_str(), val);
    sep = ", ";
  }
  std::printf("}\n");
  return 0;
}

int cmd_exec(int argc, char** argv) {
  const std::string report_flag = argc > 3 ? argv[2] : "";
  if (report_flag.rfind("--report=", 0) != 0 || std::string{argv[3]} != "--" || argc < 5) {
    die("usage: exec --report=PATH -- PROGRAM ARGS...");
  }
  const std::string report = report_flag.substr(9);
  const pid_t parent = ::getpid();
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    // Die with the launcher, so a watchdog that kills it stops the run too.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::execvp(argv[4], argv + 4);
    ::_exit(127);
  }
  int status = 0;
  struct rusage ru = {};
  if (::wait4(pid, &status, 0, &ru) != pid) die("wait4 failed");
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  const double cpu = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  std::ofstream out{report};
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"exit\": %d, \"wall_s\": %.9f, \"cpu_s\": %.6f, \"peak_rss_kb\": %ld}\n", code,
                wall, cpu, ru.ru_maxrss);
  out << buf;
  return out ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "exec") return cmd_exec(argc, argv);
  if (cmd == "layers") return cmd_layers(parse_flags(argc, argv));
  std::fprintf(stderr, "usage: perfbench_probe <exec|layers> [--key=value ...]\n");
  return 2;
}
