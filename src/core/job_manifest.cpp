#include "core/job_manifest.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "core/mini_json.hpp"
#include "trace/writers.hpp"

namespace xmp::core {

std::string SweepValue::label() const {
  char buf[32];
  if (integral) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(i));
  } else {
    std::snprintf(buf, sizeof buf, "%g", d);
  }
  return buf;
}

void SweepValue::write(trace::JsonWriter& json) const {
  if (integral) {
    json.value(i);
  } else {
    json.value(d);
  }
}

void SweepValue::write_exact(trace::JsonWriter& json) const {
  if (integral) {
    json.value(i);
    return;
  }
  char buf[32];  // holds the shortest form of any double
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, d);
  json.number_literal(std::string(buf, r.ptr));
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Pending:
      return "pending";
    case JobState::Running:
      return "running";
    case JobState::Succeeded:
      return "succeeded";
    case JobState::Failed:
      return "failed";
    case JobState::Exhausted:
      return "exhausted";
  }
  return "?";
}

bool parse_job_state(const std::string& name, JobState& out) {
  for (const JobState s : {JobState::Pending, JobState::Running, JobState::Succeeded,
                           JobState::Failed, JobState::Exhausted}) {
    if (name == job_state_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

bool JobManifest::save(const std::string& dir, std::string* error) const {
  const std::string path = dir + "/" + kFileName;
  {
    // JsonWriter stages into "<path>.tmp" and renames on destruction, so
    // the manifest on disk is always a complete document.
    trace::JsonWriter json{path};
    json.begin_object();
    json.kv("version", static_cast<std::int64_t>(kVersion));
    json.kv("param", param);
    json.key("argv");
    json.begin_array();
    for (const auto& a : argv) json.value(a);
    json.end_array();
    json.key("jobs");
    json.begin_array();
    for (const auto& j : jobs) {
      json.begin_object();
      json.kv("index", static_cast<std::uint64_t>(j.index));
      json.key("value");
      j.value.write_exact(json);
      json.kv("state", job_state_name(j.state));
      json.kv("attempts", static_cast<std::int64_t>(j.attempts));
      json.kv("dir", j.dir);
      json.kv("error", j.last_error);
      if (!j.lineage.empty()) {
        json.key("lineage");
        json.begin_array();
        for (const auto& l : j.lineage) json.value(l);
        json.end_array();
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
    if (!json.ok()) {
      if (error != nullptr) *error = "cannot write " + path;
      return false;
    }
  }
  return true;
}

bool JobManifest::load(const std::string& dir, JobManifest& out, std::string* error) {
  const std::string path = dir + "/" + kFileName;
  json::JsonValue root;
  if (!json::parse_file(path, root, error)) return false;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = path + ": " + what;
    return false;
  };
  if (!root.is_object()) return fail("not a JSON object");
  if (!root.has("version") || static_cast<int>(root.at("version").number) != kVersion) {
    return fail("missing or unsupported manifest version");
  }
  if (!root.has("param") || !root.at("param").is_string()) return fail("missing param");
  if (!root.has("argv") || !root.at("argv").is_array()) return fail("missing argv");
  if (!root.has("jobs") || !root.at("jobs").is_array()) return fail("missing jobs");

  out = JobManifest{};
  out.param = root.at("param").str;
  for (const auto& a : root.at("argv").array) {
    if (!a.is_string()) return fail("argv entries must be strings");
    out.argv.push_back(a.str);
  }
  for (const auto& jv : root.at("jobs").array) {
    if (!jv.is_object()) return fail("job entries must be objects");
    JobEntry j;
    if (!jv.has("index") || !jv.at("index").is_number()) return fail("job missing index");
    j.index = static_cast<std::size_t>(jv.at("index").number);
    if (!jv.has("value") || !jv.at("value").is_number()) return fail("job missing value");
    // An integer literal is read from its text: the parsed double has lost
    // every digit past 2^53.
    const json::JsonValue& v = jv.at("value");
    if (v.str.find_first_of(".eE") == std::string::npos) {
      std::int64_t n = 0;
      const auto [end, ec] = std::from_chars(v.str.data(), v.str.data() + v.str.size(), n);
      if (ec != std::errc{} || end != v.str.data() + v.str.size()) {
        return fail("job value out of range");
      }
      j.value = SweepValue::of_int(n);
    } else {
      j.value = SweepValue::of_real(v.number);
    }
    if (!jv.has("state") || !jv.at("state").is_string() ||
        !parse_job_state(jv.at("state").str, j.state)) {
      return fail("job missing or unknown state");
    }
    if (jv.has("attempts")) j.attempts = static_cast<int>(jv.at("attempts").number);
    if (jv.has("dir")) j.dir = jv.at("dir").str;
    if (jv.has("error")) j.last_error = jv.at("error").str;
    if (jv.has("lineage") && jv.at("lineage").is_array()) {
      for (const auto& l : jv.at("lineage").array) {
        if (!l.is_string()) return fail("lineage entries must be strings");
        j.lineage.push_back(l.str);
      }
    }
    if (j.index != out.jobs.size()) return fail("job indices must be dense and ordered");
    out.jobs.push_back(std::move(j));
  }
  return true;
}

double retry_backoff_s(double base_s, int attempt, std::size_t job_index) {
  // splitmix64 over a mix of job index and attempt number.
  std::uint64_t z = static_cast<std::uint64_t>(job_index) * 0x9E3779B97F4A7C15ull +
                    (static_cast<std::uint64_t>(attempt) + 1) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double jitter = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  return base_s * std::ldexp(1.0, attempt) * (1.0 + 0.5 * jitter);
}

}  // namespace xmp::core
