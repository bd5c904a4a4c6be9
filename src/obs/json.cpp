#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tlbsim::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

bool writeTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    auto v = value();
    if (!v.has_value()) return std::nullopt;
    skipWs();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // obs output never emits them).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> value() {
    skipWs();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    JsonValue v;
    if (c == '{') {
      ++pos_;
      v.type = JsonValue::Type::kObject;
      skipWs();
      if (consume('}')) return v;
      while (true) {
        auto key = string();
        if (!key.has_value() || !consume(':')) return std::nullopt;
        auto member = value();
        if (!member.has_value()) return std::nullopt;
        v.members.emplace_back(std::move(*key), std::move(*member));
        if (consume(',')) continue;
        if (consume('}')) return v;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      v.type = JsonValue::Type::kArray;
      skipWs();
      if (consume(']')) return v;
      while (true) {
        auto item = value();
        if (!item.has_value()) return std::nullopt;
        v.items.push_back(std::move(*item));
        if (consume(',')) continue;
        if (consume(']')) return v;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = string();
      if (!s.has_value()) return std::nullopt;
      v.type = JsonValue::Type::kString;
      v.str = std::move(*s);
      return v;
    }
    if (literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = false;
      return v;
    }
    if (literal("null")) return v;
    // Number.
    char* end = nullptr;
    const std::string buf(text_.substr(pos_, 64));
    const double num = std::strtod(buf.c_str(), &end);
    if (end == buf.c_str()) return std::nullopt;
    pos_ += static_cast<std::size_t>(end - buf.c_str());
    v.type = JsonValue::Type::kNumber;
    v.number = num;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace tlbsim::obs
