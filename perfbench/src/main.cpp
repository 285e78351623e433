// perfbench — the rtlock benchmark program.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --root=DIR --bench-dir=DIR --out-dir=DIR --rtlock=PATH
//             [--git-sha=SHA] [--source-digest=HEX]
//
// Runs one workload (eval-grid, serve-attack, serve-lock-cold), prints every
// metric with its unit and a machine record, writes the full record to
// <out-dir>/result-<workload>-seed<N>-trace<T>.json, and ends stdout with one
// JSON line {"correct", "attempted", "failed", "metrics"} holding the
// end_to_end metrics of BENCHMARK.json (--trace=0) or its per_layer metrics
// (--trace=1).  Exit 0 when every output check passed, 1 when one failed,
// 2 on a usage or infrastructure error (no result line).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "support/json.hpp"

namespace {

using namespace perfbench;
using rtlock::support::JsonValue;

struct Declared {
  std::string name;
  std::string unit;
};

/// The metric lists of BENCHMARK.json: "end_to_end" or "per_layer".
[[nodiscard]] std::vector<Declared> declaredMetrics(const std::string& root, const char* list) {
  std::ifstream in{root + "/BENCHMARK.json", std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + root + "/BENCHMARK.json"};
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue document = rtlock::support::parseJson(text.str());
  std::vector<Declared> declared;
  for (const JsonValue& metric : document.at(list).asArray()) {
    declared.push_back({metric.at("name").asString(), metric.at("unit").asString()});
  }
  return declared;
}

[[nodiscard]] std::string flagValue(const std::map<std::string, std::string>& flags,
                                    const std::string& name,
                                    const std::optional<std::string>& fallback = std::nullopt) {
  const auto found = flags.find(name);
  if (found != flags.end()) return found->second;
  if (!fallback) throw std::runtime_error{"missing --" + name};
  return *fallback;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::runtime_error{"expected --flag=value, got " + arg};
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  Options options;
  options.workload = flagValue(flags, "workload");
  options.seed = std::stoull(flagValue(flags, "seed"));
  options.seconds = std::stod(flagValue(flags, "seconds"));
  options.trace = flagValue(flags, "trace", "0") == "1";
  options.root = flagValue(flags, "root", ".");
  options.benchDir = flagValue(flags, "bench-dir", options.root + "/perfbench");
  options.outDir = flagValue(flags, "out-dir", ".");
  options.rtlockBinary = flagValue(flags, "rtlock");
  options.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (options.seconds <= 0.0) throw std::runtime_error{"--seconds must be positive"};

  const std::vector<Declared> declared =
      declaredMetrics(options.root, options.trace ? "per_layer" : "end_to_end");

  RunResult result;
  if (options.workload == "eval-grid") {
    result = runEvalGrid(options);
  } else if (options.workload == "serve-attack") {
    result = runServeAttack(options);
  } else if (options.workload == "serve-lock-cold") {
    result = runServeLockCold(options);
  } else {
    throw std::runtime_error{"unknown workload " + options.workload};
  }

  JsonValue machine;
  machine.set("nproc", options.threads);
  machine.set("compiler", PERFBENCH_COMPILER);
  machine.set("build_type", PERFBENCH_BUILD_TYPE);
  machine.set("git_sha", flagValue(flags, "git-sha", "unknown"));
  machine.set("source_digest", flagValue(flags, "source-digest", "unknown"));

  std::cout << "workload " << options.workload << " seed " << options.seed << " seconds "
            << options.seconds << " trace " << (options.trace ? 1 : 0) << "\n";
  std::cout << "machine " << machine.dumpLine() << "\n";
  std::map<std::string, const Metric*> produced;
  for (const Metric& metric : result.metrics) {
    produced[metric.name] = &metric;
    std::printf("%-34s %16.6f %-6s %s\n", metric.name.c_str(), metric.value, metric.unit.c_str(),
                metric.note.c_str());
  }
  std::printf("%-34s %16.6f %-6s %llu of %llu units\n", "failed_share",
              result.tally.failedShare(), "ratio",
              static_cast<unsigned long long>(result.tally.failed()),
              static_cast<unsigned long long>(result.tally.attempted()));
  for (const std::string& problem : result.problems) {
    std::cout << "CHECK FAILED: " << problem << "\n";
  }

  // The result line carries exactly the declared metrics.  A per-layer
  // metric whose layer is not on this workload's path reads 0; a missing
  // end-to-end metric is a benchmark bug.
  JsonValue metrics{rtlock::support::JsonObject{}};
  for (const Declared& want : declared) {
    const auto found = produced.find(want.name);
    double value = 0.0;
    if (found != produced.end()) {
      if (found->second->unit != want.unit) {
        throw std::runtime_error{"metric " + want.name + " has unit " + found->second->unit +
                                 ", BENCHMARK.json says " + want.unit};
      }
      value = found->second->value;
    } else if (!options.trace) {
      throw std::runtime_error{"workload did not report end-to-end metric " + want.name};
    }
    JsonValue entry;
    entry.set("value", value);
    entry.set("unit", want.unit);
    metrics.set(want.name, std::move(entry));
  }

  JsonValue record;
  record.set("workload", options.workload);
  record.set("seed", options.seed);
  record.set("seconds", options.seconds);
  record.set("trace", options.trace);
  record.set("machine", machine);
  record.set("properties", result.properties);
  rtlock::support::JsonArray all;
  for (const Metric& metric : result.metrics) {
    JsonValue entry;
    entry.set("name", metric.name);
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    entry.set("note", metric.note);
    all.push_back(std::move(entry));
  }
  record.set("metrics", JsonValue{std::move(all)});
  rtlock::support::JsonArray problems;
  for (const std::string& problem : result.problems) problems.push_back(JsonValue{problem});
  record.set("problems", JsonValue{std::move(problems)});
  const std::string recordPath = options.outDir + "/result-" + options.workload + "-seed" +
                                 std::to_string(options.seed) + "-trace" +
                                 (options.trace ? "1" : "0") + ".json";
  std::ofstream{recordPath, std::ios::binary | std::ios::trunc} << record.dump() << "\n";
  std::cout << "record " << recordPath << "\n";

  JsonValue line;
  line.set("correct", result.correct());
  line.set("attempted", result.tally.attempted());
  line.set("failed", result.tally.failed());
  line.set("metrics", std::move(metrics));
  std::cout << line.dumpLine() << std::endl;
  return result.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cout.flush();
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
