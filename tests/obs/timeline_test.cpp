#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/mini_json.hpp"

namespace xmp::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path{std::string{"/tmp/xmp_timeline_test_"} + name} {}
  ~TempFile() { std::remove(path.c_str()); }
};

sim::Time us(std::int64_t n) { return sim::Time::microseconds(n); }

TEST(TimelineTracer, RecordsTypedEventsOldestFirst) {
  TimelineTracer tr;
  tr.cwnd(us(1), /*flow=*/3, /*sf=*/0, 10.0);
  tr.srtt(us(2), 3, 1, 250.0);
  tr.ecn_mark(us(3), /*link=*/7, 12.0);
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.dropped(), 0u);

  std::vector<TimelineEvent> seen;
  tr.for_each([&](const TimelineEvent& e) { seen.push_back(e); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].kind, EventKind::Cwnd);
  EXPECT_EQ(seen[0].t_ns, us(1).ns());
  EXPECT_EQ(seen[0].id, 3u);
  EXPECT_EQ(seen[0].a, 10.0);
  EXPECT_EQ(seen[1].kind, EventKind::Srtt);
  EXPECT_EQ(seen[1].subflow, 1);
  EXPECT_EQ(seen[2].kind, EventKind::EcnMark);
  EXPECT_EQ(seen[2].id, 7u);
}

TEST(TimelineTracer, RingOverwritesOldestAndCountsDrops) {
  TimelineTracer::Config cfg;
  cfg.capacity = 4;
  TimelineTracer tr{cfg};
  for (int i = 0; i < 6; ++i) {
    tr.cwnd(us(i), 1, 0, static_cast<double>(i));
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 2u);  // events 0 and 1 were overwritten
  std::vector<double> values;
  tr.for_each([&](const TimelineEvent& e) { values.push_back(e.a); });
  EXPECT_EQ(values, (std::vector<double>{2.0, 3.0, 4.0, 5.0}));
}

TEST(TimelineTracer, CategoryFilterSuppressesRecording) {
  TimelineTracer::Config cfg;
  cfg.categories = cat::kCwnd | cat::kEcn;
  TimelineTracer tr{cfg};
  tr.cwnd(us(1), 1, 0, 10.0);   // kept
  tr.srtt(us(2), 1, 0, 100.0);  // filtered
  tr.gain(us(3), 1, 0, 0.5);    // filtered
  tr.ecn_mark(us(4), 2, 11.0);  // kept
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_TRUE(tr.wants(cat::kCwnd));
  EXPECT_FALSE(tr.wants(cat::kGain));
}

TEST(TimelineTracer, EveryKindHasNameAndExactlyOneCategory) {
  for (int k = 0; k <= static_cast<int>(EventKind::PathRehome); ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_STRNE(TimelineTracer::kind_name(kind), "?");
    const std::uint32_t c = TimelineTracer::category_of(kind);
    EXPECT_NE(c, 0u) << TimelineTracer::kind_name(kind);
    EXPECT_EQ(c & (c - 1), 0u) << TimelineTracer::kind_name(kind) << " has multiple bits";
  }
}

TEST(TimelineTracer, ParseFilter) {
  std::uint32_t mask = 0;
  std::string err;
  EXPECT_TRUE(TimelineTracer::parse_filter("", mask, &err));
  EXPECT_EQ(mask, cat::kAll);
  EXPECT_TRUE(TimelineTracer::parse_filter("cwnd,gain,queue", mask, &err));
  EXPECT_EQ(mask, cat::kCwnd | cat::kGain | cat::kQueue);
  EXPECT_TRUE(TimelineTracer::parse_filter("all", mask, &err));
  EXPECT_EQ(mask, cat::kAll);
  EXPECT_FALSE(TimelineTracer::parse_filter("cwnd,bogus", mask, &err));
  EXPECT_NE(err.find("bogus"), std::string::npos);
  EXPECT_FALSE(TimelineTracer::parse_filter(",,", mask, &err));
}

TEST(TimelineTracer, CsvExportHasHeaderAndOneRowPerEvent) {
  TimelineTracer tr;
  tr.cwnd(us(5), 1, 0, 12.0);
  tr.drop(us(6), 4, DropCause::Queue);
  tr.flow_done(us(7), 1, 7000.0, 850.5);
  TempFile f{"events.csv"};
  tr.export_csv(f.path);
  const std::string text = slurp(f.path);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);  // header + 3 rows
  EXPECT_EQ(text.rfind("t_ns,kind,id,subflow,aux,a,b\n", 0), 0u);
  EXPECT_NE(text.find("5000,cwnd,1,0,0,12,0"), std::string::npos);
  EXPECT_NE(text.find("6000,drop,4,0,0,0,0"), std::string::npos);
  EXPECT_NE(text.find("7000,flow_done,1,0,0,7000,850.5"), std::string::npos);
}

TEST(TimelineTracer, ChromeJsonExportIsValidAndTracksAreNamed) {
  TimelineTracer tr;
  tr.name_flow(3, "flow 3 (xmp)");
  tr.name_link(7, "core link 7");
  tr.cwnd(us(1), 3, 0, 10.0);
  tr.cwnd(us(2), 3, 1, 20.0);
  tr.gain(us(3), 3, 0, 0.25);
  tr.queue_sample(us(4), 7, 5.0, 7500.0);
  tr.ecn_mark(us(5), 7, 12.0);
  tr.fault(us(6), 2, 7);
  tr.sched_sample(us(7), 100, 65536);
  tr.flow_done(us(8), 3, 8.0, 900.0);

  TempFile f{"trace.json"};
  tr.export_chrome_json(f.path);
  const auto root = test::MiniJsonParser::parse(slurp(f.path));

  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("otherData").at("events").number, 8.0);
  EXPECT_EQ(root.at("otherData").at("dropped_oldest").number, 0.0);
  const auto& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  bool saw_flow_process = false;
  bool saw_link_process = false;
  bool saw_subflow_thread = false;
  bool saw_cwnd0 = false;
  bool saw_cwnd1 = false;
  bool saw_gain0 = false;
  double flow_pid = -1.0;
  for (const auto& ev : events.array) {
    ASSERT_TRUE(ev.is_object());
    const std::string& name = ev.at("name").str;
    const std::string& ph = ev.at("ph").str;
    if (ph == "M" && name == "process_name") {
      const std::string& pname = ev.at("args").at("name").str;
      if (pname == "flow 3 (xmp)") {
        saw_flow_process = true;
        flow_pid = ev.at("pid").number;
      }
      if (pname == "core link 7") saw_link_process = true;
    }
    if (ph == "M" && name == "thread_name") saw_subflow_thread = true;
    if (ph == "C" && name == "cwnd[0]") {
      saw_cwnd0 = true;
      EXPECT_EQ(ev.at("args").at("segments").number, 10.0);
      EXPECT_EQ(ev.at("ts").number, 1.0);  // 1 µs
      EXPECT_EQ(ev.at("pid").number, flow_pid);
    }
    if (ph == "C" && name == "cwnd[1]") saw_cwnd1 = true;
    if (ph == "C" && name == "gain[0]") saw_gain0 = true;
  }
  EXPECT_TRUE(saw_flow_process);
  EXPECT_TRUE(saw_link_process);
  EXPECT_TRUE(saw_subflow_thread);
  EXPECT_TRUE(saw_cwnd0);
  EXPECT_TRUE(saw_cwnd1);  // per-subflow series are distinct counter tracks
  EXPECT_TRUE(saw_gain0);
}

TEST(TimelineTracer, FlowAndLinkPidsNeverCollide) {
  // Flows map to even pids, links to odd: a flow id equal to a link id must
  // still land on different Perfetto processes.
  TimelineTracer tr;
  tr.cwnd(us(1), /*flow=*/5, 0, 1.0);
  tr.queue_sample(us(2), /*link=*/5, 1.0, 1500.0);
  TempFile f{"collide.json"};
  tr.export_chrome_json(f.path);
  const auto root = test::MiniJsonParser::parse(slurp(f.path));
  double cwnd_pid = -1.0;
  double qlen_pid = -1.0;
  for (const auto& ev : root.at("traceEvents").array) {
    if (ev.at("ph").str != "C") continue;
    if (ev.at("name").str == "cwnd[0]") cwnd_pid = ev.at("pid").number;
    if (ev.at("name").str == "qlen") qlen_pid = ev.at("pid").number;
  }
  EXPECT_GE(cwnd_pid, 0.0);
  EXPECT_GE(qlen_pid, 0.0);
  EXPECT_NE(cwnd_pid, qlen_pid);
}

TEST(TimelineTracer, MergedOrdersByTimeThenStreamAndSumsDrops) {
  TimelineTracer::Config cfg;
  cfg.capacity = 4;
  TimelineTracer a{cfg};
  TimelineTracer b{cfg};
  for (int i = 0; i < 6; ++i) a.cwnd(us(i), /*flow=*/1, 0, static_cast<double>(i));
  for (int i = 0; i < 9; ++i) b.cwnd(us(i), /*flow=*/2, 0, static_cast<double>(i));
  ASSERT_EQ(a.dropped(), 2u);
  ASSERT_EQ(b.dropped(), 5u);

  const auto m = TimelineTracer::merged({&a, &b});
  EXPECT_EQ(m->size(), 8u);
  // The rings kept a's t = 2..5 us and b's t = 5..8 us; the drops of every
  // stream carry over, so the export still says the trace is a tail.
  EXPECT_EQ(m->dropped(), 7u);
  std::vector<std::pair<std::int64_t, std::uint32_t>> seen;
  m->for_each([&](const TimelineEvent& e) { seen.emplace_back(e.t_ns, e.id); });
  const std::vector<std::pair<std::int64_t, std::uint32_t>> want = {
      {us(2).ns(), 1}, {us(3).ns(), 1}, {us(4).ns(), 1}, {us(5).ns(), 1},
      {us(5).ns(), 2}, {us(6).ns(), 2}, {us(7).ns(), 2}, {us(8).ns(), 2}};
  EXPECT_EQ(seen, want);  // the tie at 5 us goes to the earlier stream

  TempFile f{"merged.json"};
  m->export_chrome_json(f.path);
  const auto root = test::MiniJsonParser::parse(slurp(f.path));
  EXPECT_EQ(root.at("otherData").at("events").number, 8.0);
  EXPECT_EQ(root.at("otherData").at("dropped_oldest").number, 7.0);
}

TEST(TimelineTracer, SchedSampleMaskMatchesStride) {
  TimelineTracer::Config cfg;
  cfg.sched_sample_stride = 1u << 4;
  TimelineTracer tr{cfg};
  EXPECT_EQ(tr.sched_sample_mask(), 15u);
}

}  // namespace
}  // namespace xmp::obs
