// Minimal command-line flag parsing for the benchmark and example binaries.
//
// Supports "--name=value", "--name value", bare boolean "--name", and "--help"
// generation. Unknown flags are errors (typos should not silently run the
// wrong experiment). Numbers are read like spec values (ReadSpecNumber): the
// whole value, finite, nothing trailing.

#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace affsched {

class FlagSet {
 public:
  explicit FlagSet(std::string program_description);

  // Registers flags with defaults. `help` appears in --help output.
  void AddInt(const std::string& name, int64_t default_value, const std::string& help);
  void AddDouble(const std::string& name, double default_value, const std::string& help);
  void AddBool(const std::string& name, bool default_value, const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);

  // Parses argv. Returns false (after printing a message) on --help or on a
  // parse error; callers should exit(0) / exit(1) respectively via the
  // `help_requested` distinction.
  bool Parse(int argc, const char* const* argv);
  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }

  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

  // Rendered --help text.
  std::string Help() const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    Type type;
    std::string help;
    std::string value;    // current (parsed or default), textual
    std::string default_value;
  };

  const Flag& Lookup(const std::string& name, Type type) const;
  bool SetValue(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace affsched

#endif  // SRC_COMMON_FLAGS_H_
