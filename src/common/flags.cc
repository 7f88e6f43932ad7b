#include "src/common/flags.h"

#include <cstdlib>

#include "src/common/byte_size.h"

namespace inferturbo {

Result<FlagParser> FlagParser::Parse(int argc, const char* const argv[]) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      return Status::InvalidArgument("expected --flag, got '" + token + "'");
    }
    token = token.substr(2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      parser.values_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    // `--key value` form, unless the next token is another flag (then
    // treat as boolean true).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      parser.values_[token] = argv[++i];
    } else {
      parser.values_[token] = "true";
    }
  }
  return parser;
}

const std::string* FlagParser::Find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : *value;
}

std::int64_t FlagParser::GetInt(const std::string& key,
                                std::int64_t fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback
                          : std::strtoll(value->c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& key, double fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : std::strtod(value->c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& key, bool fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

Result<std::uint64_t> FlagParser::GetBytes(const std::string& key,
                                           std::uint64_t fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  Result<std::uint64_t> parsed = ParseByteSize(*value);
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + key + ": " +
                                   parsed.status().message());
  }
  return parsed;
}

std::vector<std::string> FlagParser::UnreadKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) keys.push_back(key);
  }
  return keys;
}

Status FlagParser::CheckAllRead(const std::string& context) const {
  std::string message;
  for (const std::string& key : UnreadKeys()) {
    if (!message.empty()) message += "\n";
    message += "unknown flag --" + key;
    if (!context.empty()) message += " for " + context;
  }
  return message.empty() ? Status::OK() : Status::InvalidArgument(message);
}

}  // namespace inferturbo
