// Minimal JSON utilities for the telemetry exporters: string escaping and
// number formatting that always yields valid JSON (no "nan"/"inf" literals).
// This is a writer's toolkit; the strict reader is ParseJson in
// src/serve/jsonv.h.

#ifndef SRC_TELEMETRY_JSON_H_
#define SRC_TELEMETRY_JSON_H_

#include <string>

namespace affsched {

// Escapes `s` for inclusion inside a JSON string literal (quotes not added).
std::string JsonEscape(const std::string& s);

// Formats a double as a JSON number. Non-finite values (which JSON cannot
// represent) become null. Integral values print without a fraction so counter
// totals stay exactly comparable across runs.
std::string JsonNumber(double value);

}  // namespace affsched

#endif  // SRC_TELEMETRY_JSON_H_
