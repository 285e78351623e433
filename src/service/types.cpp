#include "service/types.hpp"

#include <optional>
#include <utility>

#include "support/cli.hpp"
#include "support/strings.hpp"

namespace rtlock::service {

lock::Algorithm algorithmFromName(const std::string& name) {
  const std::string lowered = support::toLower(name);
  if (lowered == "serial" || lowered == "assure") return lock::Algorithm::AssureSerial;
  if (lowered == "random") return lock::Algorithm::AssureRandom;
  if (lowered == "hra") return lock::Algorithm::Hra;
  if (lowered == "greedy") return lock::Algorithm::Greedy;
  if (lowered == "era") return lock::Algorithm::Era;
  throw BadRequest{"unknown algorithm '" + name + "' (expected serial|random|hra|greedy|era)"};
}

std::string algorithmName(lock::Algorithm algorithm) {
  switch (algorithm) {
    case lock::Algorithm::AssureSerial: return "serial";
    case lock::Algorithm::AssureRandom: return "random";
    case lock::Algorithm::Hra: return "hra";
    case lock::Algorithm::Greedy: return "greedy";
    case lock::Algorithm::Era: return "era";
  }
  RTLOCK_UNREACHABLE("algorithm");
}

std::vector<lock::Algorithm> algorithmListFromNames(const std::string& text) {
  std::vector<lock::Algorithm> algorithms;
  for (const std::string& name : support::split(text, ',')) {
    if (!support::trim(name).empty()) {
      algorithms.push_back(algorithmFromName(std::string{support::trim(name)}));
    }
  }
  if (algorithms.empty()) throw BadRequest{"no algorithms listed"};
  return algorithms;
}

std::vector<std::uint64_t> parseSeedList(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& piece : support::split(text, ',')) {
    const std::string item{support::trim(piece)};
    if (item.empty()) continue;
    const auto malformed = [&item]() {
      return BadRequest{"malformed seeds entry '" + item + "' (expected e.g. 1,2,7 or 1..5)"};
    };
    const std::size_t dots = item.find("..");
    if (dots == std::string::npos) {
      const std::optional<std::uint64_t> seed = support::parseU64(item);
      if (!seed.has_value()) throw malformed();
      seeds.push_back(*seed);
      continue;
    }
    const std::optional<std::uint64_t> first = support::parseU64(item.substr(0, dots));
    const std::optional<std::uint64_t> last = support::parseU64(item.substr(dots + 2));
    if (!first.has_value() || !last.has_value()) throw malformed();
    if (*last < *first || *last - *first > 10'000) {
      throw BadRequest{"seeds range '" + item + "' must ascend and span at most 10000 seeds"};
    }
    for (std::uint64_t s = *first; s <= *last; ++s) seeds.push_back(s);
  }
  if (seeds.empty()) throw BadRequest{"no seeds listed"};
  return seeds;
}

int BudgetSpec::resolve(int lockableOps) const {
  if (!isFraction) return static_cast<int>(absolute);
  const int bits = static_cast<int>(fraction * lockableOps);
  return bits > 0 ? bits : 1;
}

std::string BudgetSpec::describe() const {
  if (isFraction) return support::formatDouble(fraction * 100.0, 0) + "%";
  return std::to_string(absolute) + " bits";
}

BudgetSpec parseBudget(const std::string& text) {
  BudgetSpec spec;
  try {
    // Full-consumption parses: trailing junk must fail loudly, not silently
    // reinterpret the budget ("50%x", "1e2").
    std::size_t used = 0;
    if (!text.empty() && text.back() == '%') {
      const std::string number = text.substr(0, text.size() - 1);
      spec.isFraction = true;
      spec.fraction = std::stod(number, &used) / 100.0;
      if (used != number.size()) throw BadRequest{"trailing junk"};
    } else if (text.find('.') != std::string::npos) {
      spec.isFraction = true;
      spec.fraction = std::stod(text, &used);
      if (used != text.size()) throw BadRequest{"trailing junk"};
    } else {
      spec.isFraction = false;
      spec.absolute = std::stoll(text, &used);
      if (used != text.size()) throw BadRequest{"trailing junk"};
    }
  } catch (const std::exception&) {
    throw BadRequest{"malformed budget '" + text + "' (expected e.g. 50%, 0.5 or 40)"};
  }
  if (spec.isFraction && (spec.fraction <= 0.0 || spec.fraction > 1.0)) {
    throw BadRequest{"budget fraction must be in (0%, 100%], got '" + text + "'"};
  }
  if (!spec.isFraction && spec.absolute < 1) {
    throw BadRequest{"absolute budget must be at least 1 key bit, got '" + text + "'"};
  }
  return spec;
}

support::JsonValue rowsToJson(const std::vector<ReportRow>& rows) {
  support::JsonArray array;
  array.reserve(rows.size());
  for (const ReportRow& row : rows) {
    support::JsonValue entry;
    entry.set("bench", row.bench);
    entry.set("config", row.config);
    entry.set("metric", row.metric);
    // Match the baseline writer's fixed precisions so the documents diff and
    // gate identically whichever tool produced them.
    entry.set("value", std::stod(support::formatDouble(row.value, 4)));
    entry.set("wall_ms", std::stod(support::formatDouble(row.wallMs, 2)));
    array.push_back(std::move(entry));
  }
  return support::JsonValue{std::move(array)};
}

support::JsonValue keyFileToJson(const KeyFile& keyFile) {
  support::JsonValue document;
  document.set("schema", kKeySchema);
  document.set("input", keyFile.input);
  document.set("algorithm", keyFile.algorithm);
  document.set("budget", keyFile.budget);
  document.set("seed", keyFile.seed);
  support::JsonArray modules;
  modules.reserve(keyFile.modules.size());
  for (const ModuleKey& module : keyFile.modules) {
    support::JsonValue entry;
    entry.set("module", module.module);
    entry.set("key_width", module.keyWidth);
    entry.set("key", module.keyBits);
    entry.set("bits_used", module.bitsUsed);
    entry.set("global_metric", module.globalMetric);
    entry.set("restricted_metric", module.restrictedMetric);
    support::JsonArray records;
    records.reserve(module.records.size());
    for (const lock::LockRecord& record : module.records) {
      support::JsonValue row;
      row.set("key_index", record.keyIndex);
      row.set("key_value", record.keyValue ? 1 : 0);
      row.set("real_op", std::string{rtl::opName(record.realOp)});
      row.set("dummy_op", std::string{rtl::opName(record.dummyOp)});
      records.push_back(std::move(row));
    }
    entry.set("records", support::JsonValue{std::move(records)});
    modules.push_back(std::move(entry));
  }
  document.set("modules", support::JsonValue{std::move(modules)});
  return document;
}

KeyFile keyFileFromJson(const support::JsonValue& document) {
  const std::string schema = document.at("schema").asString();
  if (schema != kKeySchema) {
    throw support::Error{"unsupported key file schema \"" + schema + "\" (expected " + kKeySchema +
                         ")"};
  }
  KeyFile keyFile;
  keyFile.input = document.at("input").asString();
  keyFile.algorithm = document.at("algorithm").asString();
  keyFile.budget = document.at("budget").asString();
  keyFile.seed = static_cast<std::uint64_t>(document.at("seed").asInt());
  for (const support::JsonValue& entry : document.at("modules").asArray()) {
    ModuleKey module;
    module.module = entry.at("module").asString();
    module.keyWidth = static_cast<int>(entry.at("key_width").asInt());
    module.keyBits = entry.at("key").asString();
    module.bitsUsed = static_cast<int>(entry.at("bits_used").asInt());
    module.globalMetric = entry.at("global_metric").asDouble();
    module.restrictedMetric = entry.at("restricted_metric").asDouble();
    if (module.keyBits.size() != static_cast<std::size_t>(module.keyWidth)) {
      throw support::Error{"key file module \"" + module.module +
                           "\": key string length does not match key_width"};
    }
    for (const support::JsonValue& row : entry.at("records").asArray()) {
      lock::LockRecord record;
      record.keyIndex = static_cast<int>(row.at("key_index").asInt());
      record.keyValue = row.at("key_value").asInt() != 0;
      const auto realOp = rtl::opFromName(row.at("real_op").asString());
      const auto dummyOp = rtl::opFromName(row.at("dummy_op").asString());
      if (!realOp || !dummyOp) {
        throw support::Error{"key file module \"" + module.module +
                             "\": unknown operator mnemonic in record"};
      }
      record.realOp = *realOp;
      record.dummyOp = *dummyOp;
      module.records.push_back(record);
    }
    keyFile.modules.push_back(std::move(module));
  }
  return keyFile;
}

const ModuleKey& moduleKeyFor(const KeyFile& keyFile, const std::string& moduleName) {
  std::vector<std::string> names;
  for (const ModuleKey& module : keyFile.modules) {
    if (module.module == moduleName) return module;
    names.push_back(module.module);
  }
  throw support::Error{"key file has no entry for module \"" + moduleName +
                       "\" (it has: " + support::join(names, ", ") + ")"};
}

}  // namespace rtlock::service
