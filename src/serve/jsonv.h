// A minimal JSON document parser: the repository's one strict JSON reader.
//
// The telemetry layer's json.h is a writer's toolkit (escaping, number
// formatting); the serve layer additionally needs to *read* JSON:
// wire-protocol requests off the daemon socket and cached cell entries.
// Tests use it to check exporter output too. This is a strict,
// dependency-free recursive-descent parser into a small DOM. Strictness
// matters for the cache: a truncated entry (the process was SIGKILLed
// mid-write, the disk filled up) must fail to parse so the probe treats it
// as a miss and the cell is re-simulated — never half-read.
//
// Numbers keep their raw source text alongside the converted double, so a
// value written with %.17g round-trips to the bit-identical double (the
// property the checkpoint/resume path depends on for byte-identical result
// documents).

#ifndef SRC_SERVE_JSONV_H_
#define SRC_SERVE_JSONV_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace affsched {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  // Numbers: the exact source token (e.g. "0.10000000000000001") — convert
  // on demand so 64-bit integers and bit-exact doubles both survive.
  std::string number;
  std::string string_value;
  std::vector<JsonValue> array;
  // Object members in source order (duplicates keep the last).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsNumber() const { return kind == Kind::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;

  // Typed accessors with defaults (never throw; wrong-kind reads return the
  // fallback so protocol handlers can validate with explicit checks).
  double AsDouble(double fallback = 0.0) const;
  int64_t AsInt64(int64_t fallback = 0) const;
  uint64_t AsUint64(uint64_t fallback = 0) const;
  const std::string& AsString(const std::string& fallback) const;
  bool AsBool(bool fallback = false) const;
};

// Parses exactly one JSON value spanning the whole of `text` (leading and
// trailing whitespace allowed, trailing garbage is an error). Returns false
// and sets `error` (with a byte offset) on malformed input.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// Formats a double so that ParseJson + AsDouble returns the bit-identical
// value: shortest form for integral values, %.17g otherwise. Non-finite
// values (unrepresentable in JSON) become "null", which fails DecodeEntry-
// style strict readers — by design, a cell with NaN accounting is not
// cacheable.
std::string ExactDouble(double value);

}  // namespace affsched

#endif  // SRC_SERVE_JSONV_H_
