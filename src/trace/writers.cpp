#include "trace/writers.hpp"

#include <cassert>
#include <cstdio>

#include "trace/atomic_file.hpp"

namespace xmp::trace {
namespace {

/// Shared teardown for both writers: publish the staged temp file if every
/// write succeeded, otherwise discard it so a failed export leaves no
/// artifact at all (and never a torn one). True when the file was published.
bool finish_atomic(std::ofstream& out, const std::string& path) {
  out.flush();
  const bool good = out.good();
  out.close();
  const std::string tmp = tmp_path_for(path);
  if (good) return commit_tmp_file(tmp, path);
  std::remove(tmp.c_str());
  return false;
}

}  // namespace

// ---------------------------------------------------------------- CSV ---

CsvWriter::CsvWriter(const std::string& path) : path_{path}, out_{tmp_path_for(path)} {}

CsvWriter::~CsvWriter() {
  if (!closed_) close();
}

bool CsvWriter::close() {
  closed_ = true;
  if (row_started_) end_row();
  return finish_atomic(out_, path_);
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  for (const auto& c : columns) field(c);
  end_row();
}

void CsvWriter::sep() {
  if (row_started_) out_ << ',';
  row_started_ = true;
}

CsvWriter& CsvWriter::field(const std::string& v) {
  sep();
  if (v.find_first_of(",\"\n") != std::string::npos) {
    out_ << '"';
    for (char c : v) {
      if (c == '"') out_ << '"';
      out_ << c;
    }
    out_ << '"';
  } else {
    out_ << v;
  }
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  sep();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ << buf;
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  sep();
  out_ << v;
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t v) {
  sep();
  out_ << v;
  return *this;
}

void CsvWriter::end_row() {
  out_ << '\n';
  row_started_ = false;
}

// --------------------------------------------------------------- JSON ---

JsonWriter::JsonWriter(const std::string& path) : path_{path}, out_{tmp_path_for(path)} {
  needs_comma_.push_back(false);
}

JsonWriter::~JsonWriter() {
  if (!closed_) close();
}

bool JsonWriter::close() {
  closed_ = true;
  out_ << '\n';
  return finish_atomic(out_, path_);
}

std::string JsonWriter::escape(const std::string& s) {
  std::string r;
  r.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        r += "\\\"";
        break;
      case '\\':
        r += "\\\\";
        break;
      case '\n':
        r += "\\n";
        break;
      case '\t':
        r += "\\t";
        break;
      default:
        // RFC 8259: all other control characters must be \u-escaped.
        // Non-ASCII bytes pass through untouched (UTF-8 is valid JSON).
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          r += buf;
        } else {
          r += c;
        }
    }
  }
  return r;
}

void JsonWriter::comma_if_needed() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows "key":
  }
  if (needs_comma_.back()) out_ << ",";
  if (depth_ > 0) {
    out_ << '\n';
    indent();
  }
  needs_comma_.back() = true;
}

void JsonWriter::indent() {
  for (int i = 0; i < depth_; ++i) out_ << "  ";
}

void JsonWriter::begin_object() {
  comma_if_needed();
  out_ << '{';
  needs_comma_.push_back(false);
  ++depth_;
}

void JsonWriter::end_object() {
  assert(!after_key_);
  const bool had_content = needs_comma_.back();
  needs_comma_.pop_back();
  --depth_;
  if (had_content) {
    out_ << '\n';
    indent();
  }
  out_ << '}';
}

void JsonWriter::begin_array() {
  comma_if_needed();
  out_ << '[';
  needs_comma_.push_back(false);
  ++depth_;
}

void JsonWriter::end_array() {
  assert(!after_key_);
  const bool had_content = needs_comma_.back();
  needs_comma_.pop_back();
  --depth_;
  if (had_content) {
    out_ << '\n';
    indent();
  }
  out_ << ']';
}

void JsonWriter::key(const std::string& k) {
  assert(!after_key_);
  comma_if_needed();
  out_ << '"' << escape(k) << "\": ";
  after_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  comma_if_needed();
  out_ << '"' << escape(v) << '"';
}

void JsonWriter::value(double v) {
  comma_if_needed();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ << buf;
}

void JsonWriter::value(std::int64_t v) {
  comma_if_needed();
  out_ << v;
}

void JsonWriter::value(std::uint64_t v) {
  comma_if_needed();
  out_ << v;
}

void JsonWriter::value(bool v) {
  comma_if_needed();
  out_ << (v ? "true" : "false");
}

void JsonWriter::number_literal(const std::string& text) {
  comma_if_needed();
  out_ << text;
}

}  // namespace xmp::trace
