#include "cli/common.hpp"

#include <fstream>
#include <sstream>

#include "support/strings.hpp"
#include "support/table.hpp"

namespace rtlock::cli {

support::CliArgs parseFlags(const std::vector<std::string>& args,
                            std::vector<std::string> knownFlags) {
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  argv.push_back("rtlock");
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  try {
    return support::CliArgs(static_cast<int>(argv.size()), argv.data(), std::move(knownFlags));
  } catch (const support::Error& error) {
    throw UsageError{error.what()};
  }
}

std::string onePositional(const support::CliArgs& args, const char* what) {
  if (args.positional().empty()) throw UsageError{std::string{"missing "} + what};
  if (args.positional().size() > 1) {
    throw UsageError{"unexpected extra argument '" + args.positional()[1] + "'"};
  }
  return args.positional().front();
}

std::uint64_t u64Flag(const support::CliArgs& args, std::string_view name,
                      std::uint64_t fallback) {
  try {
    return args.getU64(name, fallback);
  } catch (const support::Error& error) {
    throw UsageError{error.what()};
  }
}

std::string readTextFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw support::Error{"cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeTextFile(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw support::Error{"cannot open " + path + " for writing"};
  out << text;
  if (!out) throw support::Error{"failed writing " + path};
}

void emitRows(std::ostream& out, const std::vector<ReportRow>& rows, bool csv) {
  support::Table table{{"bench", "config", "metric", "value", "wall_ms"}};
  for (const ReportRow& row : rows) {
    table.addRow({row.bench, row.config, row.metric, support::formatDouble(row.value, 4),
                  support::formatDouble(row.wallMs, 2)});
  }
  if (csv) {
    table.renderCsv(out);
  } else {
    table.renderText(out);
  }
}

}  // namespace rtlock::cli
