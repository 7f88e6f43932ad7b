#ifndef INFERTURBO_COMMON_FLAGS_H_
#define INFERTURBO_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace inferturbo {

/// A minimal `--key=value` / `--key value` command-line parser for the
/// example binaries and tools. No registry, no globals: parse argv,
/// then pull typed values with defaults. The parser remembers which keys
/// its getters were asked for, so a program can reject the flags it
/// never read (misspelled or retired ones) instead of silently running
/// defaults. Not thread-safe: read flags from one thread.
class FlagParser {
 public:
  /// Parses argv; returns InvalidArgument on malformed input
  /// (non-flag tokens, dangling `--key` without value).
  static Result<FlagParser> Parse(int argc, const char* const argv[]);

  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Human-readable byte count ("512MB", "4GiB", "1048576"; see
  /// ParseByteSize). Unlike the lenient getters above a malformed value
  /// is an InvalidArgument error, not a silent fallback — byte budgets
  /// misread as 0 would quietly disable the limit they configure.
  Result<std::uint64_t> GetBytes(const std::string& key,
                                 std::uint64_t fallback) const;

  /// Every flag on the command line with its raw value. Reading them
  /// here does not count as reading the flags.
  const std::map<std::string, std::string>& values() const {
    return values_;
  }
  /// Keys on the command line that neither a getter nor Has() has asked
  /// for, in key order: once a program has read its options, the flags
  /// it does not know.
  std::vector<std::string> UnreadKeys() const;
  /// OK when every flag given was read; otherwise InvalidArgument whose
  /// message has one "unknown flag --KEY" line per unread key, each
  /// followed by " for `context`" when a context is given. Programs
  /// call it once they have read all their flags and exit 2 on error.
  Status CheckAllRead(const std::string& context = "") const;

 private:
  /// The raw value of `key`, or null; records the key as read.
  const std::string* Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_COMMON_FLAGS_H_
