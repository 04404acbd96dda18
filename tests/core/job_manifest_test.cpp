#include "core/job_manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace xmp::core {
namespace {

/// Fresh campaign directory under /tmp, removed on destruction.
struct TempDir {
  explicit TempDir(const char* name)
      : path{std::string{"/tmp/xmp_manifest_test_"} + name + "_" + std::to_string(::getpid())} {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

JobManifest sample_manifest() {
  JobManifest m;
  m.param = "mark-k";
  m.argv = {"--param=mark-k", "--values=5,10", "--out=ignored"};
  for (std::size_t i = 0; i < 2; ++i) {
    JobEntry j;
    j.index = i;
    j.value = SweepValue::of_int(5 * static_cast<std::int64_t>(i + 1));
    j.state = i == 0 ? JobState::Succeeded : JobState::Failed;
    j.attempts = static_cast<int>(i + 1);
    j.dir = "job_" + std::to_string(i);
    j.last_error = i == 0 ? "" : "signal 11";
    m.jobs.push_back(j);
  }
  return m;
}

TEST(JobManifest, RoundTripsThroughDisk) {
  const TempDir dir{"roundtrip"};
  const JobManifest in = sample_manifest();
  ASSERT_TRUE(in.save(dir.path));

  JobManifest out;
  std::string error;
  ASSERT_TRUE(JobManifest::load(dir.path, out, &error)) << error;
  EXPECT_EQ(out.param, in.param);
  EXPECT_EQ(out.argv, in.argv);
  ASSERT_EQ(out.jobs.size(), in.jobs.size());
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    EXPECT_EQ(out.jobs[i].index, in.jobs[i].index);
    EXPECT_EQ(out.jobs[i].value, in.jobs[i].value);
    EXPECT_EQ(out.jobs[i].state, in.jobs[i].state);
    EXPECT_EQ(out.jobs[i].attempts, in.jobs[i].attempts);
    EXPECT_EQ(out.jobs[i].dir, in.jobs[i].dir);
    EXPECT_EQ(out.jobs[i].last_error, in.jobs[i].last_error);
  }
}

// Seeds above 2^53 have no double of their own: 2^53 + 1 must come back as
// itself, not as its neighbour 2^53, and a load value stays real.
TEST(JobManifest, IntegerValuesRoundTripExactly) {
  const TempDir dir{"bigint"};
  JobManifest in;
  in.param = "seed";
  for (const SweepValue v : {SweepValue::of_int(9007199254740993),
                             SweepValue::of_int(9007199254740992), SweepValue::of_real(0.3)}) {
    JobEntry j;
    j.index = in.jobs.size();
    j.value = v;
    in.jobs.push_back(j);
  }
  ASSERT_TRUE(in.save(dir.path));
  JobManifest out;
  std::string error;
  ASSERT_TRUE(JobManifest::load(dir.path, out, &error)) << error;
  ASSERT_EQ(out.jobs.size(), 3u);
  EXPECT_EQ(out.jobs[0].value.label(), "9007199254740993");
  EXPECT_EQ(out.jobs[1].value.label(), "9007199254740992");
  EXPECT_FALSE(out.jobs[0].value == out.jobs[1].value);
  EXPECT_FALSE(out.jobs[2].value.integral);
  EXPECT_EQ(out.jobs[2].value, SweepValue::of_real(0.3));
}

// A real that "%.9g" would round (0.1234567891 has ten significant digits)
// comes back as the same double, so a resumed load sweep rebuilds the grid
// it saved; the sweep tables keep printing the rounded form.
TEST(JobManifest, RealValuesRoundTripExactly) {
  const TempDir dir{"real"};
  JobManifest in;
  in.param = "load";
  for (const double d : {0.1234567891, 0.1, 1.0 / 3.0, 1.0}) {
    JobEntry j;
    j.index = in.jobs.size();
    j.value = SweepValue::of_real(d);
    in.jobs.push_back(j);
  }
  ASSERT_TRUE(in.save(dir.path));
  JobManifest out;
  std::string error;
  ASSERT_TRUE(JobManifest::load(dir.path, out, &error)) << error;
  ASSERT_EQ(out.jobs.size(), in.jobs.size());
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    EXPECT_EQ(out.jobs[i].value, in.jobs[i].value) << "job " << i;
  }
  EXPECT_EQ(out.jobs[0].value.d, 0.1234567891);
  EXPECT_EQ(out.jobs[0].value.label(), "0.123457");
}

TEST(JobManifest, SaveLeavesNoTempFileBehind) {
  const TempDir dir{"notmp"};
  ASSERT_TRUE(sample_manifest().save(dir.path));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/" + JobManifest::kFileName));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/" + std::string{JobManifest::kFileName} +
                                       ".tmp"));
}

TEST(JobManifest, LoadRejectsMissingDirectory) {
  JobManifest out;
  std::string error;
  EXPECT_FALSE(JobManifest::load("/tmp/definitely_not_a_campaign_dir_321", out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JobManifest, LoadRejectsMalformedDocuments) {
  const TempDir dir{"malformed"};
  const auto write = [&](const std::string& text) {
    std::ofstream f{dir.path + "/" + JobManifest::kFileName};
    f << text;
  };
  JobManifest out;
  std::string error;

  write("this is not json");
  EXPECT_FALSE(JobManifest::load(dir.path, out, &error));

  write("[1, 2, 3]");
  EXPECT_FALSE(JobManifest::load(dir.path, out, &error));
  EXPECT_NE(error.find("object"), std::string::npos);

  write(R"({"version": 99, "param": "seed", "argv": [], "jobs": []})");
  EXPECT_FALSE(JobManifest::load(dir.path, out, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  // Sparse / out-of-order indices would desynchronise the grid.
  write(R"({"version": 1, "param": "seed", "argv": [],
            "jobs": [{"index": 1, "value": 2, "state": "pending"}]})");
  EXPECT_FALSE(JobManifest::load(dir.path, out, &error));
  EXPECT_NE(error.find("dense"), std::string::npos);

  write(R"({"version": 1, "param": "seed", "argv": [],
            "jobs": [{"index": 0, "value": 2, "state": "meditating"}]})");
  EXPECT_FALSE(JobManifest::load(dir.path, out, &error));
  EXPECT_NE(error.find("state"), std::string::npos);
}

TEST(JobManifest, StateNamesRoundTrip) {
  for (const JobState s : {JobState::Pending, JobState::Running, JobState::Succeeded,
                           JobState::Failed, JobState::Exhausted}) {
    JobState parsed;
    ASSERT_TRUE(parse_job_state(job_state_name(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  JobState parsed;
  EXPECT_FALSE(parse_job_state("bogus", parsed));
}

TEST(RetryBackoff, DeterministicAndExponential) {
  // Same (job, attempt) always yields the same delay — resumable campaigns
  // must not depend on rand() state.
  EXPECT_EQ(retry_backoff_s(0.5, 0, 7), retry_backoff_s(0.5, 0, 7));
  EXPECT_EQ(retry_backoff_s(0.5, 3, 1), retry_backoff_s(0.5, 3, 1));

  for (std::size_t job = 0; job < 20; ++job) {
    for (int attempt = 0; attempt < 6; ++attempt) {
      const double d = retry_backoff_s(0.5, attempt, job);
      const double base = 0.5 * std::ldexp(1.0, attempt);
      // Jitter multiplies by [1.0, 1.5).
      EXPECT_GE(d, base) << "job " << job << " attempt " << attempt;
      EXPECT_LT(d, base * 1.5) << "job " << job << " attempt " << attempt;
    }
  }
}

TEST(RetryBackoff, JitterDecorrelatesJobs) {
  // Jobs failing simultaneously must not thunder-herd their retries: the
  // per-job jitter should spread them out.
  bool any_differ = false;
  for (std::size_t job = 1; job < 8; ++job) {
    if (retry_backoff_s(1.0, 0, job) != retry_backoff_s(1.0, 0, 0)) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

}  // namespace
}  // namespace xmp::core
