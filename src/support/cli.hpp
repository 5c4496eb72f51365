// Tiny command-line flag parser for bench binaries and examples.
//
// Supports `--name value` and `--name=value`.  A tool that validates its
// command line calls check() with its own flag list, so a typo or a stray
// positional argument is an error instead of a silent fall-back to the
// defaults.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace ais {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  bool has(const std::string& name) const;

  /// Empty when every argument is a flag named in `known`; otherwise a
  /// message naming the first positional argument or unknown flag.
  std::string check(std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> values_;
  std::optional<std::string> positional_;  // first arg not starting "--"
};

}  // namespace ais
