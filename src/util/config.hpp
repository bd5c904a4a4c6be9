// Minimal key=value configuration files (for the CLI's --config and any
// scripted sweeps):
//
//   # comment
//   scheme = tlb
//   load   = 0.6
//   ecn-k  = 65
//
// Keys and values are trimmed; later duplicates win; '#' starts a comment
// anywhere on a line.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tlbsim {

class KeyValueConfig {
 public:
  /// Parse from text. Malformed lines (no '=') are recorded as errors but
  /// do not abort parsing.
  static KeyValueConfig fromString(const std::string& text);

  /// Read and parse a file; nullopt if the file cannot be read.
  static std::optional<KeyValueConfig> fromFile(const std::string& path);

  /// The value of `key`, or "" when it is absent. Values are text: the
  /// reader parses them with util/parse.hpp.
  std::string get(const std::string& key) const;

  /// All keys in file order (duplicates collapsed to last occurrence).
  std::vector<std::string> keys() const;

  /// Lines that failed to parse ("<lineno>: <content>").
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  std::vector<std::string> errors_;
};

}  // namespace tlbsim
