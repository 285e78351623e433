// Minimal command-line flag parsing for benches and examples.
//
// Syntax: --name=value or --name value; bare --flag sets a boolean.
// Unknown flags raise Error so typos in experiment scripts fail loudly
// instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rtlock::support {

class CliArgs {
 public:
  /// Parse argv; `spec` lists the accepted flag names (without "--").
  CliArgs(int argc, const char* const* argv, std::vector<std::string> knownFlags);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name, std::string_view fallback) const;
  [[nodiscard]] std::int64_t getInt(std::string_view name, std::int64_t fallback) const;
  /// Strict non-negative integer flag via parseU64: unlike std::stoull-style
  /// parsing, "3x" and "-1" both fail loudly instead of truncating to 3 or
  /// wrapping to 2^64-1.  Throws Error on any malformed value.
  [[nodiscard]] std::uint64_t getU64(std::string_view name, std::uint64_t fallback) const;
  [[nodiscard]] double getDouble(std::string_view name, double fallback) const;
  [[nodiscard]] bool getBool(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

/// Requested worker count for a tool invocation: the --threads flag wins,
/// then the RTLOCK_THREADS environment override, then 0 ("hardware
/// concurrency").  Feed the result to TaskPool (or a campaign's
/// CampaignOptions::threads), which resolves 0 via resolveThreadCount.  A
/// malformed RTLOCK_THREADS fails loudly (same policy as CliArgs: typos must
/// not silently run a default configuration).  Shared by the benches and the
/// rtlock CLI.
[[nodiscard]] int requestedThreads(const CliArgs& args);

/// Strict base-10 parse of the ENTIRE text as an unsigned 64-bit integer:
/// no sign, no whitespace, no trailing junk, no overflow — nullopt on any
/// violation.  The one parser behind every non-negative CLI integer, so a
/// typo like "3x" or a negative seed can never silently truncate or wrap.
[[nodiscard]] std::optional<std::uint64_t> parseU64(std::string_view text);

}  // namespace rtlock::support
