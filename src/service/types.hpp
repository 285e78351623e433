// Request/response vocabulary shared by the CLI subcommands and the serve
// front end.
//
// Everything here used to be CLI-private plumbing (src/cli/common.hpp); the
// service layer promotes it to the library so `rtlock lock` and
// `POST /v1/lock` validate budgets, spell algorithms and emit key files
// through the same code.  The CLI keeps aliases so the subcommands read
// unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace rtlock::service {

/// Caller-fault failure (malformed budget text, unknown algorithm name,
/// out-of-range knob).  The CLI maps it to kExitUsage, the HTTP front end to
/// status 400 — distinct from support::Error only in *blame*, not severity.
class BadRequest : public support::Error {
 public:
  using support::Error::Error;
};

// ---- algorithm spelling ----------------------------------------------------

/// Locking algorithm from its canonical spelling: serial|assure, random,
/// hra, greedy, era (case-insensitive).  Throws BadRequest otherwise.
[[nodiscard]] lock::Algorithm algorithmFromName(const std::string& name);

/// Canonical lower-case spelling (stable in reports and key files).
[[nodiscard]] std::string algorithmName(lock::Algorithm algorithm);

/// Comma-separated algorithm list ("serial,hra,era"); BadRequest when empty
/// or any name is unknown.
[[nodiscard]] std::vector<lock::Algorithm> algorithmListFromNames(const std::string& text);

/// Seed list: "1,2,7" and inclusive ranges "1..5" (span capped at 10000).
/// Every token goes through support::parseU64 — trailing junk and negative
/// values are BadRequest, never silently misread.
[[nodiscard]] std::vector<std::uint64_t> parseSeedList(const std::string& text);

// ---- key budgets -----------------------------------------------------------

/// Key budget: "50%" or "0.5" = fraction of the module's lockable
/// operations; a bare integer = absolute key bits.
struct BudgetSpec {
  bool isFraction = true;
  double fraction = 0.75;
  std::int64_t absolute = 0;

  /// Key bits for a module with `lockableOps` operations (floor, min 1).
  [[nodiscard]] int resolve(int lockableOps) const;
  /// Canonical spelling for reports ("75%" / "12 bits").
  [[nodiscard]] std::string describe() const;
};

/// Parses a budget spelling; throws BadRequest on malformed or out-of-range
/// text ("50%x", "1e2", "140%", "0").
[[nodiscard]] BudgetSpec parseBudget(const std::string& text);

// ---- report rows -----------------------------------------------------------

/// One metric row; the schema BENCH_baseline.json established
/// ({bench, config, metric, value, wall_ms}), reused verbatim so every
/// rtlock report is consumable by the same tooling as the committed
/// baseline.
struct ReportRow {
  std::string bench;
  std::string config;
  std::string metric;
  double value = 0.0;
  double wallMs = 0.0;
};

/// Rows as the JSON array for a report's "rows" member.
[[nodiscard]] support::JsonValue rowsToJson(const std::vector<ReportRow>& rows);

// ---- key files (rtlock-key/v1) --------------------------------------------

inline constexpr const char* kKeySchema = "rtlock-key/v1";

/// Per-module locking ground truth + provenance.
struct ModuleKey {
  std::string module;
  int keyWidth = 0;
  std::string keyBits;  // LSB-first '0'/'1' string, length == keyWidth
  std::vector<lock::LockRecord> records;
  int bitsUsed = 0;
  double globalMetric = 0.0;
  double restrictedMetric = 0.0;
};

struct KeyFile {
  std::string algorithm;  // canonical spelling
  std::uint64_t seed = 0;
  std::string budget;  // BudgetSpec::describe() text
  std::string input;   // source netlist path (or request label)
  std::vector<ModuleKey> modules;
};

[[nodiscard]] support::JsonValue keyFileToJson(const KeyFile& keyFile);
[[nodiscard]] KeyFile keyFileFromJson(const support::JsonValue& document);

/// Entry for `moduleName`; throws support::Error naming the candidates when
/// absent.
[[nodiscard]] const ModuleKey& moduleKeyFor(const KeyFile& keyFile, const std::string& moduleName);

}  // namespace rtlock::service
