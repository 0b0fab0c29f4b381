#include "src/util/config.h"

#include <cmath>
#include <sstream>

namespace perfiso {
namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

StatusOr<ConfigMap> ConfigMap::Parse(const std::string& text) {
  ConfigMap map;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("config line " + std::to_string(line_number) +
                                  ": missing '=' in \"" + trimmed + "\"");
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      return InvalidArgumentError("config line " + std::to_string(line_number) + ": empty key");
    }
    map.entries_[key] = value;
  }
  return map;
}

std::string ConfigMap::Serialize() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    out += key + " = " + value + "\n";
  }
  return out;
}

std::string FormatDouble(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

Status ParseValue(const std::string& text, bool* out) {
  if (text == "true" || text == "1") {
    *out = true;
  } else if (text == "false" || text == "0") {
    *out = false;
  } else {
    return InvalidArgumentError("not a bool: " + text);
  }
  return OkStatus();
}

Status ParseValue(const std::string& text, double* out) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end || !std::isfinite(value)) {
    return InvalidArgumentError("not a finite number: " + text);
  }
  *out = value;
  return OkStatus();
}

void ConfigReader::Micros(const std::string& key, SimDuration& value) {
  const std::string* text = Take(key);
  if (text == nullptr) {
    return;
  }
  int64_t micros = 0;
  Status status = ParseValue(*text, &micros);
  constexpr int64_t kLimit = std::numeric_limits<SimDuration>::max() / kMicrosecond;
  if (status.ok() && (micros > kLimit || micros < -kLimit)) {
    status = InvalidArgumentError(*text + " us overflows the nanosecond clock");
  }
  Check(key, status);
  if (status.ok()) {
    value = micros * kMicrosecond;
  }
}

Status ConfigReader::Finish() const {
  PERFISO_RETURN_IF_ERROR(error_);
  for (const auto& [key, value] : map_.entries()) {
    if (consumed_.count(key) == 0) {
      return InvalidArgumentError("unknown or inapplicable config key: " + key);
    }
  }
  return OkStatus();
}

const std::string* ConfigReader::Take(const std::string& key) {
  if (!error_.ok()) {
    return nullptr;
  }
  const auto it = map_.entries().find(prefix_ + key);
  if (it == map_.entries().end()) {
    return nullptr;
  }
  consumed_.insert(it->first);
  return &it->second;
}

void ConfigReader::Check(const std::string& key, const Status& status) {
  if (error_.ok() && !status.ok()) {
    error_ = InvalidArgumentError("config key \"" + prefix_ + key + "\": " + status.message());
  }
}

std::set<int> ConfigReader::KeyedIds(const std::string& prefix) {
  std::set<int> ids;
  const std::string scope = prefix_ + prefix;
  for (auto it = map_.entries().lower_bound(scope);
       error_.ok() && it != map_.entries().end() && it->first.rfind(scope, 0) == 0; ++it) {
    const std::string& key = it->first;
    const size_t dot = key.find('.', scope.size());
    int id = 0;
    const Status status =
        dot == std::string::npos
            ? InvalidArgumentError("expected " + scope + "<id>.<field>")
            : ParseValue(key.substr(scope.size(), dot - scope.size()), &id);
    Check(key.substr(prefix_.size()), status);
    ids.insert(id);
  }
  return ids;
}

std::vector<std::string> ConfigReader::Split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (true) {
    const size_t end = text.find(separator, begin);
    parts.push_back(text.substr(begin, end - begin));
    if (end == std::string::npos) {
      return parts;
    }
    begin = end + 1;
  }
}

}  // namespace perfiso
