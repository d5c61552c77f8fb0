// Canonical JSON layer for the benchkit workload subsystem: an escaping
// string quoter, a streaming object writer (the producer of every
// BENCH_*.json trajectory record), and a small recursive-descent parser
// (the consumer side of record reading, --baseline comparison and the
// benchkit test suite).
//
// Numeric values are emitted as JSON numbers, never strings; the one
// deliberate exception is 64-bit checksums, which callers format as hex
// strings ("0x...") because doubles cannot hold them exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcolor::benchkit {

// `s` as a quoted JSON string: quotes, backslashes and all control
// characters below 0x20 escaped (\n, \t, ... or \u00xx).
std::string json_quote(std::string_view s);

// Canonical number formatting: integers print without a fraction,
// everything else round-trips through %.10g (more than enough for
// millisecond timings).
std::string json_number(double v);
std::string json_number(std::int64_t v);

// Streaming writer for one flat-ish object; fields appear in insertion
// order, which gives every BENCH record the same stable key order.
class JsonObjectWriter {
 public:
  JsonObjectWriter& field(const char* key, std::string_view v);  // quoted
  // Without this overload a string literal would prefer the bool
  // conversion over the user-defined string_view one.
  JsonObjectWriter& field(const char* key, const char* v);
  JsonObjectWriter& field(const char* key, double v);
  JsonObjectWriter& field(const char* key, std::int64_t v);
  JsonObjectWriter& field(const char* key, bool v);
  // Pre-rendered JSON (a number, array, or nested object).
  JsonObjectWriter& field_raw(const char* key, std::string_view raw);
  std::string close();

 private:
  void comma();
  std::string out_ = "{";
  bool first_ = true;
};

// Parsed JSON value. Numbers are doubles (BENCH records keep every
// compared quantity within exact double range).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  // Typed accessors with fallbacks, for tolerant record reading.
  double number_or(std::string_view key, double fallback) const;
  std::string string_or(std::string_view key, const std::string& fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
};

// Parses exactly one JSON value (leading/trailing whitespace allowed).
// On failure returns false and describes the problem in *err.
bool json_parse(std::string_view text, JsonValue* out, std::string* err);

}  // namespace dcolor::benchkit
