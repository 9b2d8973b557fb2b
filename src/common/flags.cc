#include "src/common/flags.h"

#include <cstdlib>
#include <sstream>

#include "src/common/check.h"
#include "src/common/spec_grammar.h"

namespace affsched {

FlagSet::FlagSet(std::string program_description) : description_(std::move(program_description)) {}

void FlagSet::AddInt(const std::string& name, int64_t default_value, const std::string& help) {
  const std::string text = std::to_string(default_value);
  flags_[name] = Flag{Type::kInt, help, text, text};
}

void FlagSet::AddDouble(const std::string& name, double default_value, const std::string& help) {
  std::ostringstream out;
  out << default_value;
  flags_[name] = Flag{Type::kDouble, help, out.str(), out.str()};
}

void FlagSet::AddBool(const std::string& name, bool default_value, const std::string& help) {
  const std::string text = default_value ? "true" : "false";
  flags_[name] = Flag{Type::kBool, help, text, text};
}

void FlagSet::AddString(const std::string& name, const std::string& default_value,
                        const std::string& help) {
  flags_[name] = Flag{Type::kString, help, default_value, default_value};
}

bool FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    error_ = "unknown flag --" + name;
    return false;
  }
  Flag& flag = it->second;
  // Numbers go through the spec grammar's strict reader: the whole value,
  // finite, no trailing characters.
  switch (flag.type) {
    case Type::kInt: {
      int64_t parsed = 0;
      if (!ReadSpecNumber("flag --" + name, value, &parsed, &error_)) {
        return false;
      }
      break;
    }
    case Type::kDouble: {
      double parsed = 0.0;
      if (!ReadSpecNumber("flag --" + name, value, &parsed, &error_)) {
        return false;
      }
      break;
    }
    case Type::kBool: {
      if (value != "true" && value != "false" && value != "1" && value != "0") {
        error_ = "flag --" + name + " expects true/false, got '" + value + "'";
        return false;
      }
      break;
    }
    case Type::kString:
      break;
  }
  flag.value = value;
  return true;
}

bool FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      auto it = flags_.find(arg);
      if (it == flags_.end()) {
        error_ = "unknown flag --" + arg;
        return false;
      }
      if (it->second.type == Type::kBool) {
        value = "true";  // bare boolean
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        error_ = "flag --" + arg + " is missing a value";
        return false;
      }
    }
    if (!SetValue(arg, value)) {
      return false;
    }
  }
  return true;
}

const FlagSet::Flag& FlagSet::Lookup(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  AFF_CHECK_MSG(it != flags_.end(), "flag was never registered");
  AFF_CHECK_MSG(it->second.type == type, "flag accessed with wrong type");
  return it->second;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  return std::strtoll(Lookup(name, Type::kInt).value.c_str(), nullptr, 10);
}

double FlagSet::GetDouble(const std::string& name) const {
  return std::strtod(Lookup(name, Type::kDouble).value.c_str(), nullptr);
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string& v = Lookup(name, Type::kBool).value;
  return v == "true" || v == "1";
}

const std::string& FlagSet::GetString(const std::string& name) const {
  return Lookup(name, Type::kString).value;
}

std::string FlagSet::Help() const {
  std::ostringstream out;
  out << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.default_value << ")\n      " << flag.help
        << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace affsched
