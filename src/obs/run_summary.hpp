// Machine-readable run output: a flat set of string metadata + named
// numeric results, serialized as one JSON object. Bench binaries and the
// CLI use this so every figure run can also emit JSON (the BENCH_*.json
// trajectory) instead of only printing tables.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace tlbsim::obs {

class RunSummary {
 public:
  /// String-valued metadata (scheme, workload, git rev, ...). Insertion
  /// order is preserved; setting an existing key overwrites it.
  void setMeta(const std::string& key, std::string value);

  /// Numeric result. Insertion order is preserved; overwrites by key.
  void set(const std::string& key, double value);

  const std::string* meta(const std::string& key) const;
  const double* value(const std::string& key) const;

  const std::vector<std::pair<std::string, std::string>>& metas() const {
    return meta_;
  }
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

  /// One JSON object. Every line after the first starts with `indent`
  /// spaces, so the object can sit at that depth in a larger document.
  std::string toJson(int indent = 0) const;
  bool writeJsonFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, double>> values_;
};

}  // namespace tlbsim::obs
