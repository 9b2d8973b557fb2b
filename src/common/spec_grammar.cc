#include "src/common/spec_grammar.h"

namespace affsched {

bool ParseSpec(const std::string& text, char separator, const std::string& what,
               const std::function<bool(const std::string& preset)>& load_preset,
               const std::function<bool(const std::string& key, const std::string& value,
                                        std::string* error)>& apply_key,
               std::string* error) {
  if (text.empty()) {
    return SpecError(error, "empty " + what + " spec");
  }
  std::vector<std::string> tokens = SplitSpec(text, separator);
  std::string preset;
  if (tokens[0].find('=') == std::string::npos) {
    preset.swap(tokens[0]);
  }
  if (!load_preset(preset)) {
    return SpecError(error, "unknown " + what + " preset '" + preset + "'");
  }
  for (const std::string& token : tokens) {
    if (token.empty()) {
      continue;
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return SpecError(error, "expected key=value, got '" + token + "'");
    }
    if (!apply_key(token.substr(0, eq), token.substr(eq + 1), error)) {
      return false;
    }
  }
  return true;
}

bool SpecError(std::string* error, const std::string& message) {
  *error = message;
  return false;
}

std::vector<std::string> SplitSpec(const std::string& text, char separator) {
  std::vector<std::string> pieces(1);
  for (const char c : text) {
    if (c == separator) {
      pieces.emplace_back();
    } else {
      pieces.back() += c;
    }
  }
  return pieces;
}

bool ReadSpecBool(const std::string& key, const std::string& value, bool* out,
                  std::string* error) {
  *out = value == "1" || value == "true" || value == "on";
  return *out || value == "0" || value == "false" || value == "off" ||
         SpecError(error, key + " must be 0 or 1, got '" + value + "'");
}

}  // namespace affsched
