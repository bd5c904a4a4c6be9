#include "obs/run_summary.hpp"

#include "obs/json.hpp"

namespace tlbsim::obs {

void RunSummary::setMeta(const std::string& key, std::string value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta_.emplace_back(key, std::move(value));
}

void RunSummary::set(const std::string& key, double value) {
  for (auto& [k, v] : values_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  values_.emplace_back(key, value);
}

const std::string* RunSummary::meta(const std::string& key) const {
  for (const auto& [k, v] : meta_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const double* RunSummary::value(const std::string& key) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string RunSummary::toJson(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "  \"" + jsonEscape(k) + "\": \"" + jsonEscape(v) + "\"";
  }
  for (const auto& [k, v] : values_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "  \"" + jsonEscape(k) + "\": " + jsonNumber(v);
  }
  out += first ? "}" : "\n" + pad + "}";
  return out;
}

bool RunSummary::writeJsonFile(const std::string& path) const {
  return writeTextFile(path, toJson() + "\n");
}

}  // namespace tlbsim::obs
