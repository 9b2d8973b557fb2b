// The grammar every spec string shares: closed sweep grids ("fig5;procs=8"),
// open sweep grids ("opensys;rhos=0.5,0.9") and machine topologies
// ("numa-4x8,remote=2.5"). A spec is an optional preset name, then
// key=value overrides, split on ';' (sweeps) or ',' (topologies); empty
// tokens are skipped. Values are read strictly — a number spans its whole
// token, doubles are finite, lists hold no empty items — so hostile text
// (specs arrive over the daemon socket) fails here with a message instead of
// reaching the engine.

#ifndef SRC_COMMON_SPEC_GRAMMAR_H_
#define SRC_COMMON_SPEC_GRAMMAR_H_

#include <charconv>
#include <cmath>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace affsched {

// Parses "[preset]<separator>key=value<separator>...". `load_preset` resets
// the spec to the named preset ("" when the text starts with an override)
// and returns false for an unknown name. `apply_key` applies each override
// in order and returns false, with `error` set, on an invalid value or an
// unknown key. `what` names the grammar in errors ("unknown <what> preset").
bool ParseSpec(const std::string& text, char separator, const std::string& what,
               const std::function<bool(const std::string& preset)>& load_preset,
               const std::function<bool(const std::string& key, const std::string& value,
                                        std::string* error)>& apply_key,
               std::string* error);

// Sets `error` to `message` and returns false.
bool SpecError(std::string* error, const std::string& message);

// Splits on every `separator`, keeping empty pieces.
std::vector<std::string> SplitSpec(const std::string& text, char separator);

// Reads a comma-separated list into `out` through one read_item(item,
// &element, error) call per item. Fails on an empty item ("policies=equi,").
template <typename T, typename ReadItem>
bool ReadSpecList(const std::string& key, const std::string& value, ReadItem read_item,
                  std::vector<T>* out, std::string* error) {
  std::vector<T> elements;
  for (const std::string& item : SplitSpec(value, ',')) {
    if (item.empty()) {
      return SpecError(error, key + " has an empty item in '" + value + "'");
    }
    if (!read_item(item, &elements.emplace_back(), error)) {
      return false;
    }
  }
  *out = std::move(elements);
  return true;
}

// Reads 1/true/on or 0/false/off.
bool ReadSpecBool(const std::string& key, const std::string& value, bool* out,
                  std::string* error);

// Reads the whole of `value` as a T: an unsigned integer, a signed integer or
// a finite double. No sign on unsigned types, no leading '+' or whitespace,
// no trailing characters, no overflow, no NaN or infinity.
template <typename T>
bool ReadSpecNumber(const std::string& key, const std::string& value, T* out,
                    std::string* error) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, status] = std::from_chars(value.data(), end, parsed);
  if (status != std::errc() || stop != end || !std::isfinite(static_cast<double>(parsed))) {
    const char* kind = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_unsigned_v<T>     ? "an unsigned integer"
                                                   : "an integer";
    return SpecError(error, key + " expects " + kind + ", got '" + value + "'");
  }
  *out = parsed;
  return true;
}

}  // namespace affsched

#endif  // SRC_COMMON_SPEC_GRAMMAR_H_
