#include "core/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "trace/atomic_file.hpp"

namespace xmp::core::ckpt {

namespace {

constexpr char kMagic[4] = {'X', 'M', 'P', 'C'};

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

void fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

/// splitmix64-based field mixer for config fingerprints. Every field is fed
/// as a u64, so adding/reordering fields changes the fingerprint — which is
/// exactly the point: a checkpoint only restores into the config that wrote
/// it.
struct Fingerprint {
  std::uint64_t h = 0x243f6a8885a308d3ull;  // pi

  void mix(std::uint64_t v) {
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h = z ^ (z >> 31);
  }
  void mix_i(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix_d(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  void mix_scheme(const workload::SchemeSpec& s) {
    mix(static_cast<std::uint64_t>(s.kind));
    mix_i(s.subflows);
    mix_i(s.beta);
    mix_i(s.dead_after_rtos);
    mix_i(s.max_rehomes);
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::string file_name(std::uint64_t seq) {
  return "ckpt_" + std::to_string(seq) + ".bin";
}

namespace {

/// The file header: magic, then the Header fields, the payload size and
/// its CRC.
void header(Io& io, Header& h, std::uint64_t& payload_size, std::uint32_t& crc) {
  io.tag("XMPC");
  io.u32(h.version);
  io.u64(h.fingerprint);
  io.i64(h.t_ns);
  io.u64(h.seq);
  io.u64(h.prev_written);
  io.u64(h.prev_bytes);
  io.u64(payload_size);
  io.u32(crc);
}

}  // namespace

bool write_file(const std::string& path, const Header& h, const std::string& payload,
                std::string* error) {
  Io io;
  Header fields = h;
  std::uint64_t size = payload.size();
  std::uint32_t crc = crc32(payload.data(), payload.size());
  header(io, fields, size, crc);
  return trace::atomic_write_file(path, io.data() + payload, error);
}

namespace {

/// Shared header parse + verification; `payload` may be null for probes.
bool read_impl(const std::string& path, std::uint64_t expect_fingerprint, Header& h,
               std::string* payload, std::string* error) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    fail(error, "checkpoint " + path + ": cannot open");
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    fail(error, "checkpoint " + path + ": read error");
    return false;
  }
  const std::string raw = buf.str();
  if (raw.size() < kHeaderBytes) {
    fail(error, "checkpoint " + path + ": truncated (" + std::to_string(raw.size()) +
                    " bytes < " + std::to_string(kHeaderBytes) + "-byte header)");
    return false;
  }
  // Io::tag would reject too, but the magic gets its own diagnostic.
  if (std::memcmp(raw.data(), kMagic, 4) != 0) {
    fail(error, "checkpoint " + path + ": bad magic (not a checkpoint file)");
    return false;
  }
  Io io{raw};
  std::uint64_t payload_size = 0;
  std::uint32_t stored_crc = 0;
  header(io, h, payload_size, stored_crc);
  if (h.version != kFormatVersion) {
    fail(error, "checkpoint " + path + ": format version " + std::to_string(h.version) +
                    " (expected " + std::to_string(kFormatVersion) + ")");
    return false;
  }
  if (!io.ok()) {
    fail(error, "checkpoint " + path + ": corrupt header");
    return false;
  }
  if (raw.size() - kHeaderBytes != payload_size) {
    fail(error, "checkpoint " + path + ": payload truncated (have " +
                    std::to_string(raw.size() - kHeaderBytes) + " bytes, header says " +
                    std::to_string(payload_size) + ")");
    return false;
  }
  const std::uint32_t actual = crc32(raw.data() + kHeaderBytes, payload_size);
  if (actual != stored_crc) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "CRC mismatch (stored %08x, computed %08x)", stored_crc,
                  actual);
    fail(error, "checkpoint " + path + ": " + msg);
    return false;
  }
  if (expect_fingerprint != 0 && h.fingerprint != expect_fingerprint) {
    fail(error, "checkpoint " + path + ": config fingerprint mismatch (run configuration differs)");
    return false;
  }
  if (payload) payload->assign(raw, kHeaderBytes, payload_size);
  return true;
}

}  // namespace

bool read_file(const std::string& path, std::uint64_t expect_fingerprint, Header& h,
               std::string& payload, std::string* error) {
  return read_impl(path, expect_fingerprint, h, &payload, error);
}

bool probe_file(const std::string& path, std::uint64_t expect_fingerprint, Header& h,
                std::string* error) {
  return read_impl(path, expect_fingerprint, h, nullptr, error);
}

std::string newest_valid(const std::string& dir, std::uint64_t expect_fingerprint, bool verbose) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator{dir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 9 || name.compare(0, 5, "ckpt_") != 0 ||
        name.compare(name.size() - 4, 4, ".bin") != 0)
      continue;
    const char* last = name.data() + name.size() - 4;
    std::uint64_t seq = 0;  // digits only, that a uint64 holds: a crafted name is skipped
    const auto [end, err] = std::from_chars(name.data() + 5, last, seq);
    if (err != std::errc{} || end != last) continue;
    candidates.emplace_back(seq, entry.path().string());
  }
  // Newest first: the first candidate that verifies wins, older good
  // snapshots stay on disk as further fallbacks.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [seq, path] : candidates) {
    Header h;
    std::string error;
    if (probe_file(path, expect_fingerprint, h, &error)) return path;
    if (verbose) std::fprintf(stderr, "xmpsim: %s — skipped\n", error.c_str());
  }
  return {};
}

std::uint64_t config_fingerprint(const ExperimentConfig& cfg) {
  Fingerprint f;
  f.mix(static_cast<std::uint64_t>(cfg.pattern));
  f.mix_scheme(cfg.scheme);
  f.mix(cfg.scheme_b.has_value());
  if (cfg.scheme_b) f.mix_scheme(*cfg.scheme_b);
  f.mix_i(cfg.fat_tree_k);
  f.mix(cfg.queue_capacity);
  f.mix(cfg.mark_threshold);
  f.mix_i(cfg.perm_min_bytes);
  f.mix_i(cfg.perm_max_bytes);
  f.mix_i(cfg.rand_min_bytes);
  f.mix_i(cfg.rand_max_bytes);
  f.mix_i(cfg.permutation_rounds);
  f.mix_i(cfg.duration.ns());
  f.mix_i(cfg.incast.n_jobs);
  f.mix_i(cfg.incast.servers_per_job);
  f.mix_i(cfg.incast.request_bytes);
  f.mix_i(cfg.incast.response_bytes);
  f.mix(cfg.incast.max_jobs);
  f.mix(cfg.seed);
  f.mix_i(cfg.rtt_sample_interval.ns());
  f.mix(static_cast<std::uint64_t>(cfg.routing.kind));
  f.mix_i(cfg.routing.flowlet_gap.ns());
  f.mix_i(cfg.routing.reroute_delay.ns());
  f.mix(cfg.fault_plan.events.size());
  for (const auto& e : cfg.fault_plan.events) {
    f.mix(static_cast<std::uint64_t>(e.kind));
    f.mix_i(e.at.ns());
    f.mix_i(e.target);
    f.mix(static_cast<std::uint64_t>(e.loss.kind));
    f.mix_d(e.loss.p_loss);
    f.mix_d(e.loss.p_corrupt);
    f.mix_d(e.loss.p_good_bad);
    f.mix_d(e.loss.p_bad_good);
    f.mix_d(e.loss.loss_good);
    f.mix_d(e.loss.loss_bad);
    f.mix_d(e.gray.factor);
    f.mix_i(e.gray.delay.ns());
    f.mix_i(e.gray.jitter.ns());
    f.mix_d(e.gray.p);
    f.mix_i(e.gray.hold.ns());
  }
  f.mix(cfg.fault_seed);
  // Empirical workloads: the fingerprint covers the *parsed content* of the
  // workload file (nodes, span, CDF points, explicit flows) plus the
  // effective offered load, so a snapshot taken under one workload cannot
  // restore under another even if both share a path.
  f.mix(cfg.workload != nullptr);
  if (cfg.workload) {
    f.mix(cfg.workload->content_hash());
    f.mix_d(cfg.offered_load > 0.0 ? cfg.offered_load : cfg.workload->default_load);
  }
  // Hybrid runs carry a HYBR section whose shape is a function of these
  // knobs; covering them rejects a non-hybrid snapshot in a hybrid world
  // (and any hybrid-population mismatch) at the header check.
  f.mix(cfg.hybrid.enabled);
  if (cfg.hybrid.enabled) {
    f.mix_i(cfg.hybrid.bg_flows);
    f.mix_i(cfg.hybrid.bg_bytes);
    f.mix_i(cfg.hybrid.fg_flows);
    f.mix_i(cfg.hybrid.fg_bytes);
    f.mix_i(cfg.hybrid.promote_bytes);
    f.mix_i(cfg.hybrid.tick.ns());
  }
  return f.h;
}

}  // namespace xmp::core::ckpt
