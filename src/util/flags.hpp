// Minimal command-line flag parsing for the bench/example binaries.
// Supports --name=value and --name value; bool flags accept bare --name.
// Each program declares the flag names it reads, so a misspelled or
// retired flag fails the run instead of silently doing nothing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace geomcast::util {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input or on a
  /// flag whose name is not in `known` (non-flag positional arguments are
  /// collected, not rejected). The getters throw std::logic_error for a
  /// name outside `known`: the declaration must list every flag read.
  Flags(int argc, const char* const* argv, std::initializer_list<std::string_view> known);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Comma-separated integer list, e.g. --dims=2,3,4.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  /// The value given for `name`, or null when absent.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::string program_;
  std::set<std::string, std::less<>> known_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace geomcast::util
