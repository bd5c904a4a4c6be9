#include "util/config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace tlbsim {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

KeyValueConfig KeyValueConfig::fromString(const std::string& text) {
  KeyValueConfig cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      cfg.errors_.push_back(std::to_string(lineno) + ": " + stripped);
      continue;
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty()) {
      cfg.errors_.push_back(std::to_string(lineno) + ": " + stripped);
      continue;
    }
    // Later duplicates win.
    auto it = std::find_if(cfg.entries_.begin(), cfg.entries_.end(),
                           [&](const auto& e) { return e.first == key; });
    if (it != cfg.entries_.end()) {
      it->second = value;
    } else {
      cfg.entries_.emplace_back(key, value);
    }
  }
  return cfg;
}

std::optional<KeyValueConfig> KeyValueConfig::fromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return fromString(buf.str());
}

std::string KeyValueConfig::get(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return "";
}

std::vector<std::string> KeyValueConfig::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : entries_) out.push_back(k);
  return out;
}

}  // namespace tlbsim
