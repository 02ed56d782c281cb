// Line-oriented JSON for the dtopd request/response protocol.
//
// The wire protocol (docs/dtopctl.md § dtopd protocol) is one JSON object
// per line in both directions. Requests are deliberately *flat*: every field
// is a string, number, boolean, or null — list-valued parameters (sweep
// families, sizes, seeds) travel as strings in the same list grammar the
// CLI flags use ("8..32:8", "torus,debruijn"), so the service reuses the
// campaign parsers verbatim. The parser therefore rejects nested objects
// and arrays with a clear error instead of half-supporting them.
//
// Responses are built with JsonWriter, which emits fields in call order and
// never pretty-prints — a response is one line, byte-identical for a given
// request history at any worker count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace dtop::service {

// Thrown on malformed request lines (bad syntax, wrong field type, missing
// required field). The service maps it to an ok=false error response.
class JsonError : public Error {
 public:
  explicit JsonError(std::string what) : Error(std::move(what)) {}
};

struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // unescaped string value, or the raw number token
};

// A flat JSON object: string keys, scalar values.
class JsonObject {
 public:
  bool has(const std::string& key) const { return fields_.count(key) != 0; }
  const JsonValue* find(const std::string& key) const;

  // Typed accessors. The `get_*` forms return `fallback` when the key is
  // absent; the `require_*` forms throw JsonError. All throw JsonError when
  // the key is present with the wrong type.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  std::string require_string(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  std::int64_t get_i64(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  // The value re-rendered as a JSON token ("\"abc\"", "17", "true"), used to
  // echo the client's request id verbatim. Empty when absent.
  std::string raw_token(const std::string& key) const;

  void set(std::string key, JsonValue v);
  std::size_t size() const { return fields_.size(); }

  // Every field name, in sorted (std::map) order. Used by the metrics wire
  // layer to walk a counters/gauges/histograms object without knowing its
  // schema up front.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, JsonValue> fields_;
};

// Parses one flat JSON object. Throws JsonError on syntax errors, nested
// containers, duplicate keys, or trailing garbage.
JsonObject parse_json_object(const std::string& line);

// Response-side helper for the nested sub-objects a daemon splices into a
// line via JsonWriter::field_raw (which the flat request parser deliberately
// rejects): the balanced object value of `key` inside a response line
// (braces inside string literals skipped), or "" when the key is absent.
// Used by the metrics wire layer.
std::string extract_object(const std::string& line, const std::string& key);

// Builds a single-line JSON object, fields in call order. Keys and string
// values are escaped (runner::json_escape's rules) straight into the line.
class JsonWriter {
 public:
  JsonWriter& field(std::string_view key, std::string_view value);
  // A string literal would otherwise convert to bool before string_view.
  JsonWriter& field(std::string_view key, const char* value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, bool value);
  // Splices a pre-rendered JSON token or fragment (an echoed id, a nested
  // object built by another writer).
  JsonWriter& field_raw(std::string_view key, std::string_view token);

  // Closes the object. The writer must not be reused afterwards.
  std::string str();

 private:
  void key(std::string_view k);
  std::string out_ = "{";
  bool first_ = true;
};

}  // namespace dtop::service
