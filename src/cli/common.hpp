// Internal plumbing shared by the rtlock subcommands.
//
// Everything here is CLI-private: commands include this header, the library
// proper never does.  The public surface is cli.hpp's runCli alone.
//
// The request/response vocabulary (budgets, algorithm spellings, report
// rows, key files) lives in src/service/types.hpp since the serve front end
// shares it; the aliases below keep the subcommands reading unchanged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cli/cli.hpp"
#include "core/report.hpp"
#include "rtl/module.hpp"
#include "service/types.hpp"
#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace rtlock::cli {

/// Usage-class failure (unknown flag, malformed flag value, missing
/// positional).  Mapped to kExitUsage at the dispatch boundary — alongside
/// service::BadRequest, its library-level sibling — while plain
/// support::Error (bad file, parse error) maps to kExitError.
class UsageError : public support::Error {
 public:
  using support::Error::Error;
};

/// Output streams for one invocation.  `out` carries the requested artifact
/// (tables, rendered reports); `err` carries diagnostics and progress.
struct CommandIo {
  std::ostream& out;
  std::ostream& err;
};

/// A subcommand: entry point plus the usage text `rtlock help <name>` prints.
struct Command {
  const char* name;
  const char* oneLiner;
  const char* usage;  // full flag reference, man-page style
  int (*run)(const std::vector<std::string>& args, CommandIo& io);
};

/// The dispatch table, in help order.
[[nodiscard]] const std::vector<Command>& commandTable();

// Subcommand entry points (one translation unit each).
int runLockCommand(const std::vector<std::string>& args, CommandIo& io);
int runAttackCommand(const std::vector<std::string>& args, CommandIo& io);
int runEvalCommand(const std::vector<std::string>& args, CommandIo& io);
int runWorkCommand(const std::vector<std::string>& args, CommandIo& io);
int runMergeCommand(const std::vector<std::string>& args, CommandIo& io);
int runReportCommand(const std::vector<std::string>& args, CommandIo& io);
int runDesignsCommand(const std::vector<std::string>& args, CommandIo& io);
int runLintCommand(const std::vector<std::string>& args, CommandIo& io);
int runServeCommand(const std::vector<std::string>& args, CommandIo& io);

// ---- flag parsing ---------------------------------------------------------

/// Wraps CliArgs so flag-syntax failures classify as UsageError.
[[nodiscard]] support::CliArgs parseFlags(const std::vector<std::string>& args,
                                          std::vector<std::string> knownFlags);

/// The one required positional argument (the input path); UsageError when
/// missing or when extras are present.
[[nodiscard]] std::string onePositional(const support::CliArgs& args, const char* what);

/// Locking algorithm from its CLI spelling: serial|assure, random, hra,
/// greedy, era (case-insensitive).  service::BadRequest otherwise
/// (kExitUsage, like any flag typo).
[[nodiscard]] inline lock::Algorithm algorithmFromFlag(const std::string& name) {
  return service::algorithmFromName(name);
}

/// CLI spelling of an algorithm (lower-case, stable in reports/key files).
[[nodiscard]] inline std::string algorithmFlagName(lock::Algorithm algorithm) {
  return service::algorithmName(algorithm);
}

// Key budgets: "50%" / "0.5" = fraction of lockable operations, bare
// integer = absolute key bits (service::BadRequest on malformed text).
using service::BudgetSpec;
using service::parseBudget;

/// Strict non-negative integer flag (support::parseU64 semantics: the whole
/// token, no sign, no trailing junk, no wraparound).  Malformed values
/// classify as UsageError so they exit with kExitUsage like any other flag
/// typo — "--seed -1" and "--samples 3x" must never silently run with a
/// wrapped or truncated value.
[[nodiscard]] std::uint64_t u64Flag(const support::CliArgs& args, std::string_view name,
                                    std::uint64_t fallback);

// ---- file I/O -------------------------------------------------------------

[[nodiscard]] std::string readTextFile(const std::string& path);
void writeTextFile(const std::string& path, const std::string& text);

// ---- report rows ----------------------------------------------------------

// One metric row ({bench, config, metric, value, wall_ms}) and its JSON
// spelling — the BENCH_baseline.json schema, shared with the service layer.
using service::ReportRow;
using service::rowsToJson;

/// Renders rows as an aligned table or CSV on `out`.
void emitRows(std::ostream& out, const std::vector<ReportRow>& rows, bool csv);

// ---- key files (rtlock-key/v1) --------------------------------------------

using service::kKeySchema;
using service::KeyFile;
using service::keyFileFromJson;
using service::keyFileToJson;
using service::ModuleKey;
using service::moduleKeyFor;

// ---- module selection -----------------------------------------------------

/// Picks the module a single-module command operates on: --module=NAME when
/// given; otherwise the design's only module, or — when `requireKey` — its
/// only keyed module.  Throws support::Error listing the candidates when the
/// choice is ambiguous or impossible.
[[nodiscard]] rtl::Module& selectModule(rtl::Design& design, const support::CliArgs& args,
                                        bool requireKey);

}  // namespace rtlock::cli
