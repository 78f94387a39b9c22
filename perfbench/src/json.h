#ifndef DCAPE_PERFBENCH_JSON_H_
#define DCAPE_PERFBENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

/// Builds one flat-or-nested JSON object by appending fields in order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  /// Appends an already-encoded JSON value.
  JsonObject& Raw(const std::string& key, const std::string& encoded) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + encoded;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // DCAPE_PERFBENCH_JSON_H_
