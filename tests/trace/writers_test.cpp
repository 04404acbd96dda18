#include "trace/writers.hpp"

#include <gtest/gtest.h>

#include "trace/atomic_file.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "util/mini_json.hpp"

namespace xmp::trace {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path{std::string{"/tmp/xmp_test_"} + name} {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(CsvWriter, WritesHeaderAndRows) {
  TempFile f{"basic.csv"};
  {
    CsvWriter csv{f.path};
    csv.header({"a", "b", "c"});
    csv.field(std::int64_t{1}).field(2.5).field(std::string{"x"});
    csv.end_row();
  }
  EXPECT_EQ(slurp(f.path), "a,b,c\n1,2.5,x\n");
}

TEST(CsvWriter, PublishesAtomicallyOnDestruction) {
  TempFile f{"atomic.csv"};
  std::remove(f.path.c_str());
  {
    CsvWriter csv{f.path};
    csv.header({"a"});
    csv.field(std::int64_t{1}).end_row();
    // Mid-write, only the staging file exists: a crash here leaves the
    // final path untouched instead of truncated.
    EXPECT_FALSE(std::ifstream{f.path}.good());
    EXPECT_TRUE(std::ifstream{f.path + ".tmp"}.good());
  }
  EXPECT_EQ(slurp(f.path), "a\n1\n");
  EXPECT_FALSE(std::ifstream{f.path + ".tmp"}.good());
}

TEST(JsonWriter, PublishesAtomicallyOnDestruction) {
  TempFile f{"atomic.json"};
  std::remove(f.path.c_str());
  {
    JsonWriter json{f.path};
    json.begin_object();
    json.kv("x", std::int64_t{1});
    json.end_object();
    EXPECT_FALSE(std::ifstream{f.path}.good());
    EXPECT_TRUE(std::ifstream{f.path + ".tmp"}.good());
  }
  EXPECT_NE(slurp(f.path).find("\"x\": 1"), std::string::npos);
  EXPECT_FALSE(std::ifstream{f.path + ".tmp"}.good());
}

// close() publishes at once and reports the outcome, which the destructor
// cannot: a sweep job's result file is only as good as its last write.
TEST(JsonWriter, CloseReportsWhetherTheFileWasPublished) {
  TempFile f{"closed.json"};
  JsonWriter json{f.path};
  json.begin_object();
  json.end_object();
  EXPECT_TRUE(json.close());
  EXPECT_EQ(slurp(f.path), "{}\n");

  JsonWriter lost{"/tmp/no_such_dir_xmp_test/out.json"};
  lost.begin_object();
  lost.end_object();
  EXPECT_FALSE(lost.close());
}

TEST(AtomicFile, WriteFilePublishesContentAndCleansUp) {
  TempFile f{"atomic_write.txt"};
  std::string error;
  ASSERT_TRUE(atomic_write_file(f.path, "payload\n", &error)) << error;
  EXPECT_EQ(slurp(f.path), "payload\n");
  EXPECT_FALSE(std::ifstream{f.path + ".tmp"}.good());

  // Overwrite is atomic too: the old content is replaced wholesale.
  ASSERT_TRUE(atomic_write_file(f.path, "v2\n", &error)) << error;
  EXPECT_EQ(slurp(f.path), "v2\n");
}

TEST(AtomicFile, WriteFileFailsCleanlyOnBadDirectory) {
  std::string error;
  EXPECT_FALSE(atomic_write_file("/tmp/no_such_dir_xmp_test/out.txt", "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  TempFile f{"quotes.csv"};
  {
    CsvWriter csv{f.path};
    csv.field(std::string{"hello, world"}).field(std::string{"say \"hi\""});
    csv.end_row();
  }
  EXPECT_EQ(slurp(f.path), "\"hello, world\",\"say \"\"hi\"\"\"\n");
}

TEST(CsvWriter, QuotesEmbeddedNewlinesPerRfc4180) {
  TempFile f{"newline.csv"};
  {
    CsvWriter csv{f.path};
    csv.field(std::string{"line1\nline2"}).field(std::string{"plain"});
    csv.end_row();
  }
  // The newline stays inside one quoted field — the record still ends with
  // exactly one terminating \n.
  EXPECT_EQ(slurp(f.path), "\"line1\nline2\",plain\n");
}

TEST(CsvWriter, QuoteOnlyAndEmptyFields) {
  TempFile f{"edge.csv"};
  {
    CsvWriter csv{f.path};
    csv.field(std::string{"\""}).field(std::string{}).field(std::string{","});
    csv.end_row();
  }
  EXPECT_EQ(slurp(f.path), "\"\"\"\",,\",\"\n");
}

TEST(CsvWriter, PlainFieldsAreNeverQuoted) {
  TempFile f{"plain.csv"};
  {
    CsvWriter csv{f.path};
    csv.field(std::string{"has space"}).field(std::string{"semi;colon"});
    csv.end_row();
  }
  // RFC 4180 only requires quoting for commas, quotes and line breaks;
  // gratuitous quoting would bloat large event dumps.
  EXPECT_EQ(slurp(f.path), "has space,semi;colon\n");
}

TEST(CsvWriter, UnterminatedRowFlushedOnDestruction) {
  TempFile f{"flush.csv"};
  {
    CsvWriter csv{f.path};
    csv.field(std::int64_t{7});
  }
  EXPECT_EQ(slurp(f.path), "7\n");
}

TEST(JsonWriter, NestedStructure) {
  TempFile f{"nested.json"};
  {
    JsonWriter json{f.path};
    json.begin_object();
    json.kv("name", "xmp");
    json.kv("beta", std::int64_t{4});
    json.kv("ratio", 0.25);
    json.kv("enabled", true);
    json.key("subflows");
    json.begin_array();
    json.value(std::int64_t{1});
    json.value(std::int64_t{2});
    json.end_array();
    json.key("nested");
    json.begin_object();
    json.kv("k", std::int64_t{10});
    json.end_object();
    json.end_object();
  }
  const std::string s = slurp(f.path);
  EXPECT_NE(s.find("\"name\": \"xmp\""), std::string::npos);
  EXPECT_NE(s.find("\"subflows\": ["), std::string::npos);
  EXPECT_NE(s.find("\"k\": 10"), std::string::npos);
  // Balanced braces/brackets.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST(JsonWriter, EscapesStrings) {
  TempFile f{"escape.json"};
  {
    JsonWriter json{f.path};
    json.begin_object();
    json.kv("text", "line\nbreak \"quoted\" back\\slash");
    json.end_object();
  }
  const std::string s = slurp(f.path);
  EXPECT_NE(s.find("\\n"), std::string::npos);
  EXPECT_NE(s.find("\\\""), std::string::npos);
  EXPECT_NE(s.find("\\\\"), std::string::npos);
}

TEST(JsonWriter, ControlCharactersRoundTripViaUnicodeEscapes) {
  // RFC 8259: control characters below 0x20 without a short escape must be
  // \u-escaped; the mini parser decodes them back to the original bytes.
  const std::string raw{"bell\x07 esc\x1b unit\x1f tab\t"};
  TempFile f{"ctrl.json"};
  {
    JsonWriter json{f.path};
    json.begin_object();
    json.kv("text", raw);
    json.end_object();
  }
  const std::string s = slurp(f.path);
  EXPECT_NE(s.find("\\u0007"), std::string::npos);
  EXPECT_NE(s.find("\\u001b"), std::string::npos);
  EXPECT_NE(s.find("\\u001f"), std::string::npos);
  EXPECT_NE(s.find("\\t"), std::string::npos);
  const auto root = test::MiniJsonParser::parse(s);
  EXPECT_EQ(root.at("text").str, raw);
}

TEST(MiniJson, DecodesUnicodeEscapesIncludingSurrogatePairs) {
  const auto root = test::MiniJsonParser::parse(
      R"({"s": "\u0041\u00e9\u20ac\ud83d\ude00", "slash": "\/"})");
  // A (1 byte), é (2 bytes), € (3 bytes), 😀 (4 bytes via surrogate pair).
  EXPECT_EQ(root.at("s").str, "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(root.at("slash").str, "/");
}

TEST(MiniJson, RejectsMalformedUnicodeEscapes) {
  EXPECT_THROW(test::MiniJsonParser::parse(R"({"s": "\u12"})"), std::runtime_error);
  EXPECT_THROW(test::MiniJsonParser::parse(R"({"s": "\uZZZZ"})"), std::runtime_error);
  // Unpaired / wrongly-paired surrogates are invalid JSON text.
  EXPECT_THROW(test::MiniJsonParser::parse(R"({"s": "\ud83d"})"), std::runtime_error);
  EXPECT_THROW(test::MiniJsonParser::parse(R"({"s": "\ud83dA"})"), std::runtime_error);
  EXPECT_THROW(test::MiniJsonParser::parse(R"({"s": "\ude00"})"), std::runtime_error);
}

TEST(JsonWriter, EmptyContainers) {
  TempFile f{"empty.json"};
  {
    JsonWriter json{f.path};
    json.begin_object();
    json.key("arr");
    json.begin_array();
    json.end_array();
    json.key("obj");
    json.begin_object();
    json.end_object();
    json.end_object();
  }
  const std::string s = slurp(f.path);
  EXPECT_NE(s.find("[]"), std::string::npos);
  EXPECT_NE(s.find("{}"), std::string::npos);
}

TEST(JsonWriter, OutputParsesBackStructurally) {
  TempFile f{"roundtrip.json"};
  {
    JsonWriter json{f.path};
    json.begin_object();
    json.kv("label", "a \"quoted\"\nvalue");
    json.kv("count", std::uint64_t{18446744073709551615ull});
    json.key("points");
    json.begin_array();
    json.value(0.125);
    json.value(std::int64_t{-3});
    json.value(false);
    json.end_array();
    json.end_object();
  }
  const auto root = test::MiniJsonParser::parse(slurp(f.path));
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("label").str, "a \"quoted\"\nvalue");
  ASSERT_EQ(root.at("points").array.size(), 3u);
  EXPECT_EQ(root.at("points").array[0].number, 0.125);
  EXPECT_EQ(root.at("points").array[1].number, -3.0);
  EXPECT_EQ(root.at("points").array[2].boolean, false);
}

#if !defined(NDEBUG) && GTEST_HAS_DEATH_TEST
// The nesting assertions only exist in debug builds (RelWithDebInfo defines
// NDEBUG); the asan/tsan lanes exercise these.
TEST(JsonWriterDeathTest, DanglingKeyBeforeEndObjectAsserts) {
  EXPECT_DEATH(
      {
        JsonWriter json{"/tmp/xmp_test_death1.json"};
        json.begin_object();
        json.key("orphan");
        json.end_object();  // a key must be followed by a value
      },
      "after_key_");
}

TEST(JsonWriterDeathTest, DoubleKeyAsserts) {
  EXPECT_DEATH(
      {
        JsonWriter json{"/tmp/xmp_test_death2.json"};
        json.begin_object();
        json.key("first");
        json.key("second");  // key after key, no value in between
      },
      "after_key_");
}
#endif

TEST(Export, FlowsCsvAndSummaryJsonRoundTrip) {
  core::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.pattern = core::Pattern::Random;
  cfg.rand_min_bytes = 50'000;
  cfg.rand_max_bytes = 100'000;
  cfg.duration = sim::Time::milliseconds(50);
  const auto res = core::run_experiment(cfg);

  TempFile csv{"flows.csv"};
  TempFile json{"summary.json"};
  core::export_flows_csv(res, csv.path);
  EXPECT_TRUE(core::export_summary_json(cfg, res, json.path));
  EXPECT_FALSE(core::export_summary_json(cfg, res, "/tmp/no_such_dir_xmp_test/summary.json"));

  const std::string csv_text = slurp(csv.path);
  // One header plus one line per flow.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv_text.begin(), csv_text.end(), '\n')),
            res.flows.size() + 1);
  const std::string json_text = slurp(json.path);
  EXPECT_NE(json_text.find("\"pattern\": \"Random\""), std::string::npos);
  EXPECT_NE(json_text.find("\"avg_goodput_mbps\""), std::string::npos);
  EXPECT_EQ(std::count(json_text.begin(), json_text.end(), '{'),
            std::count(json_text.begin(), json_text.end(), '}'));
}

}  // namespace
}  // namespace xmp::trace
