#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace xmp::trace {

/// Minimal CSV writer: header once, then typed rows. Values containing
/// commas/quotes are quoted per RFC 4180.
///
/// Crash-safe: rows are streamed to "<path>.tmp" and the real name only
/// appears on destruction (fsync + rename, see trace/atomic_file.hpp), so
/// an interrupted run never leaves a torn CSV behind.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  [[nodiscard]] bool ok() const { return out_.good(); }
  /// Publish the file now, as the destructor would, and report whether
  /// every write, the flush and the rename succeeded. Write nothing after.
  bool close();

  void header(const std::vector<std::string>& columns);

  CsvWriter& field(const std::string& v);
  CsvWriter& field(double v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(std::uint64_t v);
  CsvWriter& field(int v) { return field(static_cast<std::int64_t>(v)); }
  void end_row();

 private:
  void sep();

  std::string path_;
  std::ofstream out_;
  bool row_started_ = false;
  bool closed_ = false;
};

/// Minimal JSON emitter (objects, arrays, scalars) — enough to export
/// experiment results without external dependencies. Not a general
/// serializer: the caller is responsible for balanced begin/end calls
/// (assertions check nesting in debug builds).
///
/// Crash-safe like CsvWriter: the document is staged in "<path>.tmp" and
/// atomically renamed into place on destruction.
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& path);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  [[nodiscard]] bool ok() const { return out_.good(); }
  /// Publish the document now, as the destructor would, and report whether
  /// every write, the flush and the rename succeeded. Write nothing after.
  bool close();

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key inside an object; must be followed by a value/begin call.
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v) { value(std::string{v}); }
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(bool v);
  /// A number the caller already formatted, written verbatim.
  void number_literal(const std::string& text);

  // Convenience: key + scalar value.
  template <typename T>
  void kv(const std::string& k, T v) {
    key(k);
    value(v);
  }

 private:
  void comma_if_needed();
  void indent();
  static std::string escape(const std::string& s);

  std::string path_;
  std::ofstream out_;
  std::vector<bool> needs_comma_;  ///< per nesting level
  bool after_key_ = false;
  int depth_ = 0;
  bool closed_ = false;
};

}  // namespace xmp::trace
