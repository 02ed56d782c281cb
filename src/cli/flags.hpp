// Command-line parsing primitives shared by the dtopctl subcommand parsers
// (cli.cpp, sweep.cpp). All failures throw UsageError, which cli_main maps
// to a usage message on stderr and exit code 2.
#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "runner/campaign.hpp"

namespace dtop::cli {

inline std::uint64_t parse_u64(const std::string& flag,
                               const std::string& value) {
  std::uint64_t v = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) {
    throw UsageError(flag + " expects a non-negative integer, got '" + value +
                     "'");
  }
  return v;
}

// Range-checked narrowing; a silently truncated --root or --nodes would run
// the protocol on the wrong workload instead of rejecting the flag.
template <typename T>
T parse_int_as(const std::string& flag, const std::string& value) {
  const std::uint64_t v = parse_u64(flag, value);
  if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    throw UsageError(flag + " value " + value + " is out of range");
  }
  return static_cast<T>(v);
}

// One list grammar for every subcommand (commas and/or whitespace),
// delegated to the campaign layer so `loadgen --mix` and `sweep` spec lists
// parse identically.
inline std::vector<std::string> split_list(const std::string& value) {
  return runner::parse_name_list(value);
}

// Walks `args` as (--flag value | --switch) pairs; `value()` consumes the
// current flag's argument.
class FlagWalker {
 public:
  explicit FlagWalker(const std::vector<std::string>& args) : args_(args) {}

  bool next() {
    if (pos_ >= args_.size()) return false;
    flag_ = args_[pos_++];
    if (flag_.rfind("--", 0) != 0) {
      throw UsageError("expected a --flag, got '" + flag_ + "'");
    }
    return true;
  }

  const std::string& flag() const { return flag_; }

  std::string value() {
    if (pos_ >= args_.size()) {
      throw UsageError(flag_ + " expects a value");
    }
    return args_[pos_++];
  }

 private:
  const std::vector<std::string>& args_;
  std::size_t pos_ = 0;
  std::string flag_;
};

}  // namespace dtop::cli
