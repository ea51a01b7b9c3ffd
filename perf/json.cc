#include "json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perf {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool Parse(Json* out, std::string* error) {
    if (!Value(out, 0) || (SkipSpace(), pos_ != s_.size())) {
      if (error_.empty()) error_ = "trailing characters";
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return Fail("bad literal");
    pos_ += w.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected string");
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return Fail("bad escape");
      c = s_[pos_++];
      switch (c) {
        case '"': case '\\': case '/': out->push_back(c); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("bad \\u escape");
          const long code = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
          if (code >= 0x80) return Fail("non-ASCII \\u escape");
          out->push_back(static_cast<char>(code));
          pos_ += 4;
          break;
        }
        default: return Fail("bad escape");
      }
    }
    if (pos_ >= s_.size()) return Fail("unterminated string");
    ++pos_;
    return true;
  }

  /// Skips space, then consumes `c` if it comes next.
  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (Consume('{')) {
      out->type = Json::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::pair<std::string, Json> member;
        SkipSpace();
        if (!String(&member.first)) return false;
        if (!Consume(':')) return Fail("expected ':'");
        if (!Value(&member.second, depth + 1)) return false;
        out->object.push_back(std::move(member));
      } while (Consume(','));
      return Consume('}') || Fail("expected ',' or '}'");
    }
    if (Consume('[')) {
      out->type = Json::Type::kArray;
      if (Consume(']')) return true;
      do {
        Json item;
        if (!Value(&item, depth + 1)) return false;
        out->array.push_back(std::move(item));
      } while (Consume(','));
      return Consume(']') || Fail("expected ',' or ']'");
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') return Literal("null");
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return Fail("unexpected character");
    out->type = Json::Type::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const Json* Json::Find(const std::string& key) const {
  for (const auto& member : object) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

bool ReadJsonFile(const std::string& path, Json* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  if (!Parser(text.str()).Parse(out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perf
