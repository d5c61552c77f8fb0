#include "src/benchkit/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dcolor::benchkit {

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (char ch : s) {
    const unsigned char uc = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (uc < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no Inf/NaN; benches never emit them
  // Magnitude guard first: the float->int64 cast is UB above 2^63.
  if (std::fabs(v) < 1e15 && v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return json_number(static_cast<std::int64_t>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_number(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

namespace {

// True iff `s` is exactly one JSON number token (the parser's check).
bool number_token(std::string_view s) {
  std::size_t i = 0;
  const auto digits = [&] {
    std::size_t start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;  // a leading zero must stand alone
  } else if (!digits()) {
    return false;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size() && !s.empty();
}

}  // namespace

void JsonObjectWriter::comma() {
  if (!first_) out_ += ',';
  first_ = false;
}

JsonObjectWriter& JsonObjectWriter::field(const char* key, std::string_view v) {
  return field_raw(key, json_quote(v));
}

JsonObjectWriter& JsonObjectWriter::field(const char* key, const char* v) {
  return field_raw(key, json_quote(v));
}

JsonObjectWriter& JsonObjectWriter::field(const char* key, double v) {
  return field_raw(key, json_number(v));
}

JsonObjectWriter& JsonObjectWriter::field(const char* key, std::int64_t v) {
  return field_raw(key, json_number(v));
}

JsonObjectWriter& JsonObjectWriter::field(const char* key, bool v) {
  return field_raw(key, v ? "true" : "false");
}

JsonObjectWriter& JsonObjectWriter::field_raw(const char* key, std::string_view raw) {
  comma();
  out_ += json_quote(key);
  out_ += ':';
  out_ += raw;
  return *this;
}

std::string JsonObjectWriter::close() {
  out_ += '}';
  return std::move(out_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::kNumber ? v->number : fallback;
}

std::string JsonValue::string_or(std::string_view key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::kString ? v->string : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::kBool ? v->boolean : fallback;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : s_(text), err_(err) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after JSON value");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (err_) *err_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue* out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out->kind = JsonValue::Kind::kString; return string(&out->string);
      case 't': out->kind = JsonValue::Kind::kBool; out->boolean = true; return literal("true");
      case 'f': out->kind = JsonValue::Kind::kBool; out->boolean = false; return literal("false");
      case 'n': out->kind = JsonValue::Kind::kNull; return literal("null");
      default: return number(out);
    }
  }

  bool number(JsonValue* out) {
    std::size_t end = pos_;
    while (end < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[end])) ||
                               s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
                               s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    const std::string token(s_.substr(pos_, end - pos_));
    if (!number_token(token)) return fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    pos_ = end;
    return true;
  }

  bool string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      const char ch = s_[pos_];
      if (ch == '"') {
        ++pos_;
        return true;
      }
      if (ch == '\\') {
        if (pos_ + 1 >= s_.size()) return fail("truncated escape");
        const char esc = s_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s_[pos_ + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape digit");
            }
            pos_ += 4;
            // BENCH records only ever escape control characters; encode
            // anything else as UTF-8 so round trips stay lossless.
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      *out += ch;
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue elem;
      skip_ws();
      if (!value(&elem)) return false;
      out->array.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue val;
      if (!value(&val)) return false;
      out->object.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string* err_;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* err) {
  *out = JsonValue{};
  return Parser(text, err).parse(out);
}

}  // namespace dcolor::benchkit
