// serve-attack and serve-lock-cold: closed loops of nproc client threads
// against an `rtlock serve` daemon with nproc connection workers (each
// request runs on one worker thread).
//
// serve-attack — POST /v1/attack (1000 rounds, key attached, no_wall) over a
//   seeded set of locked samples: every small and mid registry design locked
//   with serial, hra and era, two attack seeds each.  The same attack layers
//   as eval-grid, but parallel across requests instead of inside one grid;
//   HTTP and 5-40 KB JSON bodies sit on the path; sessions are warm after
//   first touch.
// serve-lock-cold — POST /v1/lock over mostly distinct netlists: registry
//   designs (a minority the 100 KB N_2046/N_1023 networks) and seeded random
//   modules, each request text made distinct by a trailing comment, plus a
//   minority of exact repeats that hit the session cache.  Parsing,
//   verification, session build, locking and writing dominate; ML does
//   nothing.
//
// Callers of the service wait for each reply (scripts, fleet workers), so
// the loops are closed.
#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "composed_attack.hpp"
#include "core/algorithms.hpp"
#include "daemon.hpp"
#include "designs/random.hpp"
#include "designs/registry.hpp"
#include "layers.hpp"
#include "service/api.hpp"
#include "service/dispatch.hpp"
#include "support/strings.hpp"
#include "support/task_pool.hpp"
#include "verilog/parser.hpp"
#include "verilog/writer.hpp"

namespace perfbench {

namespace {

using namespace rtlock;

constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 3;
constexpr int kCacheMb = 64;
constexpr double kWarmupSec = 3.0;

struct ServeRequest {
  std::string target;
  std::string body;
};

/// One request of a closed loop, as the client saw it.
struct Record {
  std::size_t index = 0;
  double startSec = 0.0;  // send, since the loop started
  double endSec = 0.0;    // completion, since the loop started
  double latencyMs = 0.0;
  int status = 0;
  std::string error;
  std::string bodyDigest;
  std::string cache;
  std::string designHash;
};

struct LoopOptions {
  int clients = 1;
  double seconds = 0.0;    // stop issuing after this long (0 = no time limit)
  std::size_t limit = 0;   // stop issuing after this many requests (0 = none)
  /// Called on the client thread after each reply, outside the timed part.
  std::function<void(std::size_t, const ServeRequest&, const HttpReply&)> afterReply;
};

struct LoopResult {
  std::vector<Record> records;  // sorted by index
  double wallSec = 0.0;
};

/// Closed loop: each client takes the next request index, builds the request
/// (untimed), sends it and waits for the reply before taking another.
LoopResult closedLoop(int port, const LoopOptions& options,
                      const std::function<ServeRequest(std::size_t)>& requestAt) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  LoopResult loop;
  const auto start = Clock::now();
  const auto client = [&] {
    std::vector<Record> mine;
    for (;;) {
      if (options.seconds > 0.0 && msSince(start) >= options.seconds * 1000.0) break;
      const std::size_t index = next.fetch_add(1);
      if (options.limit > 0 && index >= options.limit) break;
      const ServeRequest request = requestAt(index);
      const auto sent = Clock::now();
      const double startSec = msSince(start) / 1000.0;
      HttpReply reply = httpRequest(port, "POST", request.target, request.body);
      Record record;
      record.latencyMs = msSince(sent);
      record.startSec = startSec;
      record.endSec = msSince(start) / 1000.0;
      if (options.afterReply) options.afterReply(index, request, reply);
      record.index = index;
      record.status = reply.status;
      record.error = std::move(reply.error);
      record.bodyDigest = support::fnv1a64Hex(reply.body);
      record.cache = std::move(reply.cache);
      record.designHash = std::move(reply.designHash);
      mine.push_back(std::move(record));
    }
    const std::lock_guard<std::mutex> lock{mutex};
    for (Record& record : mine) loop.records.push_back(std::move(record));
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < options.clients; ++c) threads.emplace_back(client);
  for (std::thread& thread : threads) thread.join();
  loop.wallSec = msSince(start) / 1000.0;
  std::sort(loop.records.begin(), loop.records.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  return loop;
}

/// What the traced run's composition of one request produced, kept for the
/// check against the service API.
struct ComposedRequest {
  virtual ~ComposedRequest() = default;
};

/// A workload's request stream plus the reference each reply must equal.
class ServeWorkload {
 public:
  virtual ~ServeWorkload() = default;
  [[nodiscard]] virtual ServeRequest requestAt(std::size_t index) const = 0;
  /// fnv1a64Hex of the body the in-process service API produces for request
  /// `index` (the same bytes a correct daemon must send).
  [[nodiscard]] virtual std::string expectedDigest(std::size_t index) = 0;
  /// Extra per-reply checks; empty = fine.
  [[nodiscard]] virtual std::string checkHeaders(const Record&) const { return {}; }
  /// True when request `index` brings one of the 100 KB networks, whose
  /// latency is reported apart from the rest.
  [[nodiscard]] virtual bool isNetwork(std::size_t) const { return false; }
  /// Computes the references of every request in `indices` (after the
  /// measured window, in parallel).
  virtual void prepareReferences(const std::vector<std::size_t>& indices, int threads) = 0;
  /// Traced run, per request, outside the unit's root span: when `index`
  /// brings a netlist not seen before, times the front-end calls of a cold
  /// session and returns true.
  virtual bool probe(std::size_t index, Tracer& tracer, TraceTotals& totals) = 0;
  /// Traced run, per request, inside the unit's root span: the layer calls
  /// the service API makes for request `index` against `cache`, each as a
  /// span (a session build on a new netlist).
  [[nodiscard]] virtual std::unique_ptr<ComposedRequest> compose(std::size_t index,
                                                                 bool newNetlist, Tracer& tracer,
                                                                 service::SessionCache& cache) = 0;
  /// Right after compose, outside the timed part: drops what the check does
  /// not need, counting what the per-layer metrics want from it first.
  virtual void settle(ComposedRequest&) {}
  /// Traced run, after every composition: checks `composed` against the
  /// service API's own result, and keeps what the per-layer metrics need.
  /// Returns a problem or empty.
  [[nodiscard]] virtual std::string verifyComposed(std::size_t index,
                                                   std::unique_ptr<ComposedRequest> composed,
                                                   TraceTotals& totals) = 0;
  virtual void describe(support::JsonValue& properties) const = 0;
};

// ---- serve-attack -----------------------------------------------------------

constexpr const char* kAttackDesigns[] = {"FIR",  "IIR",  "SIM_SPI", "USB_PHY", "I2C_SL",
                                          "SASC", "DES3", "RSA",     "MD5",     "DFT"};
constexpr const char* kAlgorithms[] = {"serial", "hra", "era"};
constexpr int kAttackSeedsPerSample = 2;

class AttackWorkload final : public ServeWorkload {
 public:
  AttackWorkload(std::uint64_t seed, Tracer* tracer) {
    service::SessionCache cache;
    support::Rng rng{seed};
    for (const char* design : kAttackDesigns) {
      const std::string text = verilog::writeModule(designs::makeBenchmark(design));
      for (const char* algorithm : kAlgorithms) {
        service::LockRequest lock;
        lock.source = text;
        lock.algorithm = service::algorithmFromName(algorithm);
        lock.seed = 1 + rng.below(1'000'000);
        const service::LockResponse locked = service::runLock(cache, lock);
        const support::JsonValue key = service::keyFileToJson(locked.key);
        for (int a = 0; a < kAttackSeedsPerSample; ++a) {
          Input input;
          input.label = std::string{design} + "/" + algorithm;
          input.request.source = locked.lockedVerilog;
          input.request.key = service::keyFileFromJson(key);
          input.request.rounds = 1000;
          input.request.seed = 1 + rng.below(1'000'000);
          input.request.threads = 1;
          input.request.includeWall = false;
          support::JsonValue body;
          body.set("source", locked.lockedVerilog);
          body.set("key", key);
          body.set("rounds", 1000);
          body.set("no_wall", true);
          body.set("seed", input.request.seed);
          input.body = body.dump();
          inputs_.push_back(std::move(input));
        }
      }
    }
    // Request order: a fresh seeded permutation of every input per cycle,
    // so each run's mix is balanced whatever the seed.
    support::Rng orderRng = support::Rng{seed}.substream(1);
    for (int cycle = 0; cycle < 200; ++cycle) {
      for (const std::size_t i : orderRng.sampleIndices(inputs_.size(), inputs_.size())) {
        order_.push_back(i);
      }
    }
    if (tracer != nullptr) {
      names_ = std::make_unique<AttackSpanNames>(*tracer);
      frontEnd_ = std::make_unique<FrontEndNames>(*tracer);
      sessionBuildSpan_ = tracer->intern("service.session_build");
    }
  }

  [[nodiscard]] std::size_t distinct() const { return inputs_.size(); }

  [[nodiscard]] ServeRequest requestAt(std::size_t index) const override {
    return {"/v1/attack", inputs_[inputOf(index)].body};
  }

  [[nodiscard]] std::string expectedDigest(std::size_t index) override {
    return digests_.at(inputOf(index));
  }

  void prepareReferences(const std::vector<std::size_t>& indices, int threads) override {
    std::set<std::size_t> needed;
    for (const std::size_t index : indices) {
      if (digests_.count(inputOf(index)) == 0) needed.insert(inputOf(index));
    }
    const std::vector<std::size_t> todo(needed.begin(), needed.end());
    service::SessionCache cache;
    support::TaskPool pool{threads};
    const std::vector<std::string> digests = pool.map(todo.size(), [&](std::size_t t) {
      const Input& input = inputs_[todo[t]];
      const service::AttackResponse response = service::runAttack(cache, input.request);
      return support::fnv1a64Hex(
          service::attackReportDocument(input.request, response, "<request>").dump());
    });
    for (std::size_t t = 0; t < todo.size(); ++t) digests_[todo[t]] = digests[t];
  }

  bool probe(std::size_t index, Tracer& tracer, TraceTotals& totals) override {
    const Input& input = inputs_[inputOf(index)];
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (!probed_.insert(support::fnv1a64Hex(input.request.source)).second) return false;
    }
    const double kb = probeFrontEnd(input.request.source, tracer, *frontEnd_);
    const std::lock_guard<std::mutex> lock{mutex_};
    totals.parsedKb += kb;
    return true;
  }

  [[nodiscard]] std::unique_ptr<ComposedRequest> compose(std::size_t index, bool newNetlist,
                                                         Tracer& tracer,
                                                         service::SessionCache& cache) override {
    const Input& input = inputs_[inputOf(index)];
    auto composed = std::make_unique<Composed>();
    {
      std::optional<Tracer::Scope> span;
      if (newNetlist) span.emplace(tracer, sessionBuildSpan_);
      composed->session = cache.fetch(input.request.source, {}).session;
    }
    composed->target = &keyedModule(*composed->session);
    composed->truth =
        service::moduleKeyFor(*input.request.key, composed->target->name()).records;
    rtl::Module target = composed->target->clone();
    support::Rng rng = support::Rng{input.request.seed}.substream(0);
    composed->attack = composedSnapshotAttack(target, composed->truth, lock::PairTable::fixed(),
                                              snapshotConfig(input), rng, tracer, *names_,
                                              &composed->training);
    return composed;
  }

  void settle(ComposedRequest& request) override {
    auto& composed = dynamic_cast<Composed&>(request);
    composed.attack.distinctRows = distinctRowCount(*composed.training);
    composed.training.reset();
  }

  [[nodiscard]] std::string verifyComposed(std::size_t index,
                                           std::unique_ptr<ComposedRequest> request,
                                           TraceTotals& totals) override {
    const Input& input = inputs_[inputOf(index)];
    const auto& composed = dynamic_cast<const Composed&>(*request);
    rtl::Module target = composed.target->clone();
    support::Rng rng = support::Rng{input.request.seed}.substream(0);
    // attack.span_coverage compares snapshotAttack with a composed re-run
    // right before it on the same thread (spans into a tracer of their own).
    support::Rng againRng = rng;
    (void)composedSnapshotAttack(target, composed.truth, lock::PairTable::fixed(),
                                 snapshotConfig(input), againRng, coverageTracer_,
                                 coverageNames_);
    const auto start = Clock::now();
    const attack::SnapshotResult reference = attack::snapshotAttack(
        target, composed.truth, lock::PairTable::fixed(), snapshotConfig(input), rng);
    const double referenceMs = msSince(start);
    const std::string difference = checkSameAttack(composed.attack, reference);
    const std::lock_guard<std::mutex> lock{mutex_};
    totals.referenceMs.push_back(referenceMs);
    totals.attacks.push_back(&composed.attack);
    totals.coverageTracer = &coverageTracer_;
    kept_.push_back(std::move(request));
    return difference.empty() ? std::string{} : input.label + ": " + difference;
  }

  void describe(support::JsonValue& properties) const override {
    std::size_t minBody = SIZE_MAX, maxBody = 0;
    for (const Input& input : inputs_) {
      minBody = std::min(minBody, input.body.size());
      maxBody = std::max(maxBody, input.body.size());
    }
    properties.set("distinct_requests", static_cast<std::int64_t>(inputs_.size()));
    properties.set("locked_samples",
                   static_cast<std::int64_t>(inputs_.size() / kAttackSeedsPerSample));
    properties.set("body_bytes_min", static_cast<std::int64_t>(minBody));
    properties.set("body_bytes_max", static_cast<std::int64_t>(maxBody));
  }

 private:
  struct Input {
    std::string label;
    std::string body;
    service::AttackRequest request;
  };
  struct Composed final : ComposedRequest {
    service::SessionPtr session;  // keeps `target` alive
    const rtl::Module* target = nullptr;
    std::vector<lock::LockRecord> truth;
    ComposedAttack attack;
    std::optional<ml::Dataset> training;  // until settle() has counted its distinct rows
  };

  [[nodiscard]] std::size_t inputOf(std::size_t index) const {
    return order_[index % order_.size()];
  }

  [[nodiscard]] static attack::SnapshotConfig snapshotConfig(const Input& input) {
    attack::SnapshotConfig config;  // as runAttack builds it from the request
    config.relockRounds = input.request.rounds;
    config.relockBudgetFraction = input.request.relockBudget.fraction;
    config.automl.folds = input.request.folds;
    return config;
  }

  [[nodiscard]] static const rtl::Module& keyedModule(const service::DesignSession& session) {
    for (std::size_t m = 0; m < session.moduleCount(); ++m) {
      if (session.module(m).keyWidth() > 0) return session.module(m);
    }
    throw std::runtime_error{"locked sample has no keyed module"};
  }

  std::unique_ptr<AttackSpanNames> names_;
  std::unique_ptr<FrontEndNames> frontEnd_;
  std::uint32_t sessionBuildSpan_ = 0;
  std::vector<Input> inputs_;
  std::vector<std::size_t> order_;
  std::map<std::size_t, std::string> digests_;
  Tracer coverageTracer_;
  const AttackSpanNames coverageNames_{coverageTracer_};
  std::mutex mutex_;  // guards probed_, kept_
  std::set<std::string> probed_;
  std::vector<std::unique_ptr<ComposedRequest>> kept_;  // verified compositions
};

// ---- serve-lock-cold --------------------------------------------------------

constexpr int kRandomBases = 192;
constexpr std::size_t kRepeatWindow = 16;  // a repeat copies one of the last 16 requests
constexpr double kRepeatShare = 0.10;
constexpr double kNetworkShare = 0.06;   // N_2046 / N_1023
constexpr double kRegistryShare = 0.20;  // the other twelve registry designs

class LockWorkload final : public ServeWorkload {
 public:
  LockWorkload(std::uint64_t seed, Tracer* tracer) : seed_(seed) {
    support::Rng baseRng = support::Rng{seed}.substream(2);
    for (const std::string& name : designs::benchmarkNames()) {
      Base base;
      base.name = name;
      base.text = verilog::writeModule(designs::makeBenchmark(name));
      (name == "N_2046" || name == "N_1023" ? networks_ : registry_).push_back(bases_.size());
      bases_.push_back(std::move(base));
    }
    for (std::uint64_t draw = 0; random_.size() < kRandomBases; ++draw) {
      support::Rng rng = support::Rng{seed}.substream(1'000 + draw);
      designs::RandomModuleParams params;
      params.operations = 8 + static_cast<int>(rng.below(240));
      params.maxWidth = 4 + static_cast<int>(rng.below(29));
      Base base;
      base.name = "random" + std::to_string(draw);
      // Keep only modules the writer can emit (it needs slices over named
      // signals) that have something to lock.
      try {
        base.text = verilog::writeModule(designs::makeRandomModule(rng, params));
      } catch (const std::exception&) {
        ++skippedRandom_;
        continue;
      }
      rtl::Module parsed = verilog::parseModule(base.text);
      if (lock::LockEngine{parsed, lock::PairTable::fixed()}.initialLockableOps() == 0) {
        ++skippedRandom_;
        continue;
      }
      random_.push_back(bases_.size());
      bases_.push_back(std::move(base));
    }
    for (std::size_t b = 0; b < bases_.size(); ++b) {
      Base& base = bases_[b];
      base.algorithm = kAlgorithms[b % 3];
      base.lockSeed = 1 + baseRng.below(1'000'000);
      const std::string quoted = support::JsonValue{base.text}.dumpLine();
      base.bodyPrefix = "{\"source\": " + quoted.substr(0, quoted.size() - 1);
      base.bodySuffix = ", \"algo\": \"" + base.algorithm +
                        "\", \"seed\": " + std::to_string(base.lockSeed) + "}";
    }
    if (tracer != nullptr) {
      frontEnd_ = std::make_unique<FrontEndNames>(*tracer);
      sessionBuildSpan_ = tracer->intern("service.session_build");
      lockSpan_ = tracer->intern("core.lock");
      writeSpan_ = tracer->intern("verilog.write");
    }
  }

  /// Request `index` is a copy of request `origin(index)`: itself, or for a
  /// repeat an earlier one.  Its base design is baseOf(origin).
  [[nodiscard]] std::size_t origin(std::size_t index) const {
    for (;;) {
      support::Rng rng = support::Rng{seed_ ^ 0x6c6f636b636f6c64ULL}.substream(index);
      if (index < kRepeatWindow || !rng.chance(kRepeatShare)) return index;
      index = index - 1 - rng.below(kRepeatWindow);
    }
  }

  [[nodiscard]] std::size_t baseOf(std::size_t originIndex) const {
    support::Rng rng = support::Rng{seed_ ^ 0x6c6f636b636f6c64ULL}.substream(originIndex);
    if (originIndex >= kRepeatWindow) (void)rng.chance(kRepeatShare);
    const double u = rng.uniform();
    if (u < kNetworkShare) return networks_[rng.below(networks_.size())];
    if (u < kNetworkShare + kRegistryShare) return registry_[rng.below(registry_.size())];
    return random_[rng.below(random_.size())];
  }

  [[nodiscard]] std::string textOf(std::size_t originIndex) const {
    return bases_[baseOf(originIndex)].text + "// perfbench request " +
           std::to_string(originIndex) + "\n";
  }

  [[nodiscard]] ServeRequest requestAt(std::size_t index) const override {
    // {"source": text, "algo": ..., "seed": ...} from the base's pre-escaped
    // text, so building a request costs the client a copy, not a JSON dump.
    const std::size_t from = origin(index);
    const Base& base = bases_[baseOf(from)];
    std::string body = base.bodyPrefix;
    body += "// perfbench request " + std::to_string(from) + "\\n\"";
    body += base.bodySuffix;
    return {"/v1/lock", std::move(body)};
  }

  [[nodiscard]] std::string expectedDigest(std::size_t index) override {
    const std::size_t from = origin(index);
    const Reference& reference = references_.at(baseOf(from));
    // The trailing comment changes only the content hash: patch it in.
    std::string expected = reference.document;
    expected.replace(reference.hashAt, reference.hashLength,
                     service::SessionCache::contentHash(textOf(from), {}));
    return support::fnv1a64Hex(expected);
  }

  [[nodiscard]] std::string checkHeaders(const Record& record) const override {
    const std::string want = service::SessionCache::contentHash(textOf(origin(record.index)), {});
    if (record.designHash == want) return {};
    return "X-Rtlock-Design-Hash " + record.designHash + " != " + want;
  }

  [[nodiscard]] bool isNetwork(std::size_t index) const override {
    const std::size_t base = baseOf(origin(index));
    return std::find(networks_.begin(), networks_.end(), base) != networks_.end();
  }

  void prepareReferences(const std::vector<std::size_t>& indices, int threads) override {
    std::map<std::size_t, std::size_t> firstOrigin;  // base -> first origin using it
    for (const std::size_t index : indices) {
      const std::size_t from = origin(index);
      const std::size_t base = baseOf(from);
      if (references_.count(base) != 0) continue;
      const auto [it, inserted] = firstOrigin.emplace(base, from);
      if (!inserted) it->second = std::min(it->second, from);
    }
    const std::vector<std::pair<std::size_t, std::size_t>> todo(firstOrigin.begin(),
                                                                firstOrigin.end());
    service::SessionCache cache;
    support::TaskPool pool{threads};
    const std::vector<Reference> built = pool.map(todo.size(), [&](std::size_t t) {
      const auto [base, from] = todo[t];
      service::LockRequest request;
      request.source = textOf(from);
      request.algorithm = service::algorithmFromName(bases_[base].algorithm);
      request.seed = bases_[base].lockSeed;
      const service::LockResponse response = service::runLock(cache, request);
      Reference reference;
      reference.document = service::lockResponseDocument(response).dump();
      reference.hashAt = reference.document.find(response.designHash);
      reference.hashLength = response.designHash.size();
      return reference;
    });
    for (std::size_t t = 0; t < todo.size(); ++t) references_[todo[t].first] = built[t];
  }

  bool probe(std::size_t index, Tracer& tracer, TraceTotals& totals) override {
    const std::size_t from = origin(index);
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (!probed_.insert(from).second) return false;
    }
    const double kb = probeFrontEnd(textOf(from), tracer, *frontEnd_);
    const std::lock_guard<std::mutex> lock{mutex_};
    totals.parsedKb += kb;
    return true;
  }

  [[nodiscard]] std::unique_ptr<ComposedRequest> compose(std::size_t index, bool newNetlist,
                                                         Tracer& tracer,
                                                         service::SessionCache& cache) override {
    // runLock's work: fetch the session (a build on a new netlist), lock
    // every lockable module of a clone, write the design.
    const std::size_t from = origin(index);
    const Base& base = bases_[baseOf(from)];
    const std::string text = textOf(from);
    service::SessionPtr session;
    {
      std::optional<Tracer::Scope> span;
      if (newNetlist) span.emplace(tracer, sessionBuildSpan_);
      session = cache.fetch(text, {}).session;
    }
    rtl::Design design = session->cloneDesign();
    {
      const Tracer::Scope span{tracer, lockSpan_};
      const support::Rng root{base.lockSeed};
      const lock::Algorithm algorithm = service::algorithmFromName(base.algorithm);
      const service::BudgetSpec budget;
      for (std::size_t m = 0; m < design.moduleCount(); ++m) {
        lock::LockEngine engine{design.module(m), lock::PairTable::fixed()};
        if (engine.initialLockableOps() == 0) continue;
        support::Rng moduleRng = root.substream(m);
        (void)lock::lockWithAlgorithm(engine, algorithm,
                                      budget.resolve(engine.initialLockableOps()), moduleRng,
                                      lock::ReportDetail::Summary);
      }
    }
    auto composed = std::make_unique<Composed>();
    {
      const Tracer::Scope span{tracer, writeSpan_};
      composed->written = verilog::writeDesign(design);
    }
    return composed;
  }

  [[nodiscard]] std::string verifyComposed(std::size_t index,
                                           std::unique_ptr<ComposedRequest> request,
                                           TraceTotals&) override {
    const std::size_t from = origin(index);
    const std::string& written = dynamic_cast<const Composed&>(*request).written;
    const support::JsonValue document =
        support::parseJson(references_.at(baseOf(from)).document);
    if (written == document.at("locked_verilog").asString()) return {};
    return bases_[baseOf(from)].name + ": composed lock + write differs from runLock";
  }

  void describe(support::JsonValue& properties) const override {
    std::size_t networkBytes = 0, registryBytes = 0, randomBytes = 0;
    for (const std::size_t b : networks_) networkBytes += bases_[b].text.size();
    for (const std::size_t b : registry_) registryBytes += bases_[b].text.size();
    for (const std::size_t b : random_) randomBytes += bases_[b].text.size();
    properties.set("random_bases", static_cast<std::int64_t>(random_.size()));
    properties.set("random_draws_skipped", static_cast<std::int64_t>(skippedRandom_));
    properties.set("mean_random_bytes", static_cast<double>(randomBytes) / random_.size());
    properties.set("mean_registry_bytes", static_cast<double>(registryBytes) / registry_.size());
    properties.set("mean_network_bytes", static_cast<double>(networkBytes) / networks_.size());
    properties.set("repeat_share_target", kRepeatShare);
    properties.set("network_share_target", kNetworkShare);
  }

 private:
  struct Base {
    std::string name;
    std::string text;
    std::string algorithm;
    std::uint64_t lockSeed = 1;
    std::string bodyPrefix;  // {"source": "<escaped text>   (string still open)
    std::string bodySuffix;  // , "algo": ..., "seed": ...}
  };
  struct Reference {
    std::string document;
    std::size_t hashAt = 0;
    std::size_t hashLength = 0;
  };
  struct Composed final : ComposedRequest {
    std::string written;
  };

  std::uint64_t seed_;
  std::vector<Base> bases_;
  std::vector<std::size_t> networks_, registry_, random_;
  std::size_t skippedRandom_ = 0;
  std::map<std::size_t, Reference> references_;
  std::unique_ptr<FrontEndNames> frontEnd_;
  std::uint32_t sessionBuildSpan_ = 0;
  std::uint32_t lockSpan_ = 0;
  std::uint32_t writeSpan_ = 0;
  std::mutex mutex_;  // guards probed_
  std::set<std::size_t> probed_;
};

// ---- shared loop and checks ---------------------------------------------------

/// Good records sent at or after the start of the measured window.
struct Checked {
  std::vector<double> latencies;         // client latency, ms
  std::vector<double> networkLatencies;  // of those, requests on the networks
  std::vector<double> otherLatencies;    // and the rest
  std::vector<double> completions;       // seconds since the window opened
};

/// Checks every record against its reference and counts it; returns the
/// good ones sent at or after `measuredFrom` seconds.
Checked checkRecords(const LoopResult& loop, ServeWorkload& workload, int threads,
                     RunResult& result, double measuredFrom = 0.0) {
  std::vector<std::size_t> indices;
  for (const Record& record : loop.records) indices.push_back(record.index);
  workload.prepareReferences(indices, threads);
  Checked checked;
  std::size_t problems = 0;
  for (const Record& record : loop.records) {
    std::string problem;
    if (record.status < 200 || record.status >= 300) {
      problem = "status " + std::to_string(record.status) + " " + record.error;
    } else if (record.bodyDigest != workload.expectedDigest(record.index)) {
      problem = "body differs from the in-process service API document";
    } else {
      problem = workload.checkHeaders(record);
    }
    result.tally.record(problem.empty());
    if (problem.empty()) {
      if (record.startSec < measuredFrom) continue;
      checked.latencies.push_back(record.latencyMs);
      (workload.isNetwork(record.index) ? checked.networkLatencies : checked.otherLatencies)
          .push_back(record.latencyMs);
      checked.completions.push_back(record.endSec - measuredFrom);
    } else if (++problems <= 5) {
      result.fail("request " + std::to_string(record.index) + ": " + problem);
    }
  }
  if (problems > 5) result.fail(std::to_string(problems - 5) + " more failed request(s)");
  return checked;
}

/// `<prefix>network_latency_p50_ms` and `<prefix>other_latency_p99_ms`: the
/// latency of requests on the 100 KB networks apart from the rest, so that
/// neither hinges on the share of networks in the mix.
void addLatencySplit(RunResult& result, const Checked& checked, const std::string& prefix) {
  const auto note = [](const std::vector<double>& values, double p) {
    return "n=" + std::to_string(values.size()) + ", " +
           std::to_string(values.empty() ? 0 : samplesBeyond(values.size(), p)) + " beyond";
  };
  result.add(prefix + "network_latency_p50_ms", percentile(checked.networkLatencies, 50.0), "ms",
             "requests on N_2046/N_1023, " + note(checked.networkLatencies, 50.0));
  result.add(prefix + "other_latency_p99_ms", percentile(checked.otherLatencies, 99.0), "ms",
             "every other request, " + note(checked.otherLatencies, 99.0));
}

using WorkloadFactory = std::function<std::unique_ptr<ServeWorkload>()>;

RunResult runUntraced(const Options& options, const WorkloadFactory& makeWorkload) {
  RunResult result;
  // Set-up: generate the inputs from the seed (which locks, writes and
  // parses designs in-process) and start a fresh daemon.  It is sampled
  // before the loop and again after it, so its median spans the run rather
  // than its first instants; the last set-up before the loop serves it.
  struct SetUp {
    std::unique_ptr<ServeWorkload> workload;
    std::unique_ptr<Daemon> daemon;
  };
  std::vector<double> setups;
  const auto timedSetUp = [&] {
    const auto start = Clock::now();
    SetUp setup{makeWorkload(),
                std::make_unique<Daemon>(options.rtlockBinary, options.threads, kCacheMb)};
    setups.push_back(msSince(start) / 1000.0);
    return setup;
  };
  for (int repeat = 1; repeat < kSetupsBefore; ++repeat) (void)timedSetUp();
  const SetUp setup = timedSetUp();
  ServeWorkload& workload = *setup.workload;
  Daemon* daemon = setup.daemon.get();
  // The first seconds warm the daemon (allocator, first session builds) and
  // are checked but not measured.
  const double warmup = std::min(kWarmupSec, 0.1 * options.seconds);
  LoopOptions loopOptions;
  loopOptions.clients = options.threads;
  loopOptions.seconds = warmup + options.seconds;
  const LoopResult loop = closedLoop(daemon->port(), loopOptions,
                                     [&](std::size_t i) { return workload.requestAt(i); });
  const double peakRss = daemon->peakRssMb();
  if (const int status = daemon->stop(); status != 0) {
    result.fail("rtlock serve exited with status " + std::to_string(status));
  }
  for (int repeat = 0; repeat < kSetupsAfter; ++repeat) (void)timedSetUp();

  const Checked checked = checkRecords(loop, workload, options.threads, result, warmup);
  result.add("setup_s", median(setups), "s",
             "median of " + std::to_string(setups.size()) +
                 " set-ups (input generation, then daemon start to /healthz 200), before and "
                 "after the loop");
  const auto inWindow = std::count_if(checked.completions.begin(), checked.completions.end(),
                                      [&](double t) { return t < options.seconds; });
  const double rate = static_cast<double>(inWindow) / options.seconds;
  result.add("requests_per_s", rate, "1/s",
             std::to_string(inWindow) + " 2xx completed in the " +
                 std::to_string(options.seconds) + " s window after " + std::to_string(warmup) +
                 " s warm-up");
  result.add("samples_per_s", rate, "1/s", "one locked sample per 2xx request");
  addPercentileMetrics(result, checked.latencies, "client latency");
  result.add("peak_rss_mb", peakRss, "MB", "rtlock serve VmHWM");
  if (!checked.networkLatencies.empty()) addLatencySplit(result, checked, "");

  std::size_t hits = 0;
  for (const Record& record : loop.records) hits += record.cache == "hit" ? 1 : 0;
  result.properties.set("requests", static_cast<std::int64_t>(loop.records.size()));
  result.properties.set("cache_hit_share",
                        loop.records.empty() ? 0.0
                                             : static_cast<double>(hits) / loop.records.size());
  result.properties.set("network_requests",
                        static_cast<std::int64_t>(checked.networkLatencies.size()));
  result.properties.set("clients", options.threads);
  support::JsonArray setUpSeconds;  // in the order taken
  for (const double value : setups) setUpSeconds.emplace_back(value);
  result.properties.set("setup_samples_s", support::JsonValue{std::move(setUpSeconds)});
  result.properties.set("warmup_s", warmup);
  workload.describe(result.properties);
  return result;
}

/// Traced run over a fixed request set.  One HTTP pass against a fresh
/// daemon, in which each client, after each reply, runs Dispatcher::handle
/// on the same request in-process (its body must equal the reply's), so
/// client latency and handle time are taken side by side and
/// service.transport_ms is their difference.  Then front-end probes of each
/// new netlist, and the composed layer calls of the first `composed`
/// requests, each composed traced and untraced for trace.overhead_pct.
RunResult runTraced(const Options& options, ServeWorkload& workload, Tracer& tracer,
                    std::size_t requests, std::size_t composed) {
  RunResult result;
  const std::uint32_t handleSpan = tracer.intern("service.handle");
  const std::uint32_t jsonSpan = tracer.intern("service.json");
  const std::uint32_t composeSpan = tracer.intern("service.compose");
  service::SessionCache handleCache;
  service::Dispatcher dispatcher{handleCache};
  std::vector<std::string> problems(requests);
  std::vector<std::string> bodies(requests);
  std::vector<support::JsonValue> replies(requests);
  LoopOptions loopOptions;
  loopOptions.clients = options.threads;
  loopOptions.limit = requests;
  loopOptions.afterReply = [&](std::size_t index, const ServeRequest& request,
                               const HttpReply& reply) {
    service::HttpRequest http;
    http.method = "POST";
    http.target = request.target;
    http.version = "HTTP/1.1";
    http.body = request.body;
    service::HttpResponse response;
    {
      const Tracer::Scope span{tracer, handleSpan, static_cast<std::uint32_t>(index + 1)};
      response = dispatcher.handle(http);
    }
    if (response.body != reply.body) {
      problems[index] = "request " + std::to_string(index) +
                        ": Dispatcher::handle body differs from the HTTP reply";
    } else if (index < composed) {
      bodies[index] = request.body;
      replies[index] = support::parseJson(response.body);
    }
  };
  std::uint64_t lookups = 0, hits = 0;
  LoopResult loop;
  {
    Daemon daemon{options.rtlockBinary, options.threads, kCacheMb};
    loop = closedLoop(daemon.port(), loopOptions,
                      [&](std::size_t i) { return workload.requestAt(i); });
    const HttpReply stats = httpRequest(daemon.port(), "GET", "/v1/stats");
    if (stats.status == 200) {
      const support::JsonValue cache = support::parseJson(stats.body).at("cache");
      hits = static_cast<std::uint64_t>(cache.at("hits").asInt());
      lookups = hits + static_cast<std::uint64_t>(cache.at("misses").asInt());
    }
    if (const int status = daemon.stop(); status != 0) {
      result.fail("rtlock serve exited with status " + std::to_string(status));
    }
  }
  const Checked checked = checkRecords(loop, workload, options.threads, result);
  double latencySum = 0.0;
  std::uint64_t rejected = 0;
  for (const Record& record : loop.records) {
    latencySum += record.latencyMs;
    if (record.status == 0 || record.status == 429 || record.status == 503) ++rejected;
  }

  // A front-end probe of each new netlist among the composed requests.
  TraceTotals totals;
  totals.unitRoot = "service.compose";
  std::vector<char> newNetlist(requests, 0);
  {
    support::TaskPool pool{options.threads};
    for (std::size_t index = 0; index < std::min(composed, requests); ++index) {
      if (!problems[index].empty()) continue;
      pool.submit([&, index] {
        newNetlist[index] = workload.probe(index, tracer, totals) ? 1 : 0;
      });
    }
    pool.wait();
  }

  // Each composed request is composed twice back to back on one thread:
  // traced, keeping the result, and with a disabled tracer (odd requests
  // take the traced one first), each against a session cache of its own.
  // A request's time is the wall of its root span, or of the same block
  // untraced; settle() runs outside it.
  Tracer untraced;
  untraced.setEnabled(false);
  std::vector<std::unique_ptr<ComposedRequest>> kept(requests);
  std::vector<std::array<double, 2>> composeMs(requests, {0.0, 0.0});  // untraced, traced
  {
    service::SessionCache tracedCache;
    service::SessionCache untracedCache;
    support::TaskPool pool{options.threads};
    for (std::size_t index = 0; index < std::min(composed, requests); ++index) {
      if (!problems[index].empty()) continue;
      pool.submit([&, index] {
        for (int run = 0; run < 2; ++run) {
          const bool traced = (run == 0) == (index % 2 == 1);
          Tracer& t = traced ? tracer : untraced;
          const auto start = Clock::now();
          std::unique_ptr<ComposedRequest> unit;
          {
            const Tracer::Scope root{t, composeSpan, static_cast<std::uint32_t>(index + 1)};
            {
              const Tracer::Scope span{t, jsonSpan};
              (void)support::parseJson(bodies[index]);
              (void)replies[index].dump();
            }
            unit = workload.compose(index, newNetlist[index] != 0, t,
                                    traced ? tracedCache : untracedCache);
          }
          composeMs[index][traced ? 1 : 0] = msSince(start);
          workload.settle(*unit);
          if (traced) kept[index] = std::move(unit);
        }
      });
    }
    pool.wait();
  }
  for (const std::array<double, 2>& times : composeMs) {
    totals.untracedMs += times[0];
    totals.tracedMs += times[1];
  }

  {
    support::TaskPool pool{options.threads};
    for (std::size_t index = 0; index < requests; ++index) {
      if (kept[index] == nullptr) continue;
      pool.submit([&, index] {
        problems[index] = workload.verifyComposed(index, std::move(kept[index]), totals);
      });
    }
    pool.wait();
  }
  for (const std::string& problem : problems) {
    if (!problem.empty()) result.fail(problem);
  }

  addTraceMetrics(result, tracer, options, totals);

  const std::vector<Span> spans = tracer.collect();
  const std::map<std::string, NameTotals> byName = tracer.totalsByName(spans);
  const NameTotals handle =
      byName.count("service.handle") != 0 ? byName.at("service.handle") : NameTotals{};
  const double handleMean =
      handle.count == 0 ? 0.0 : handle.totalMs / static_cast<double>(handle.count);
  const double latencyMean = loop.records.empty() ? 0.0 : latencySum / loop.records.size();
  result.add("service.transport_ms", latencyMean - handleMean, "ms",
             "mean client latency " + std::to_string(latencyMean) + " minus mean handle " +
                 std::to_string(handleMean) + ", each request taken both ways back to back");
  result.add("service.rejected", static_cast<double>(rejected), "count",
             "of " + std::to_string(loop.records.size()) + " requests");
  result.add("service.session_hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
             "ratio", "daemon cache, of " + std::to_string(lookups) + " lookups");
  result.add("service.session_lookups", static_cast<double>(lookups), "count");
  addLatencySplit(result, checked, "service.");
  workload.describe(result.properties);
  return result;
}

}  // namespace

RunResult runServeAttack(const Options& options) {
  if (!options.trace) {
    return runUntraced(options,
                       [&] { return std::make_unique<AttackWorkload>(options.seed, nullptr); });
  }
  Tracer tracer;
  AttackWorkload workload{options.seed, &tracer};
  // Four cycles over the distinct requests; the first cycle is composed.
  return runTraced(options, workload, tracer, 4 * workload.distinct(), workload.distinct());
}

RunResult runServeLockCold(const Options& options) {
  if (!options.trace) {
    return runUntraced(options,
                       [&] { return std::make_unique<LockWorkload>(options.seed, nullptr); });
  }
  Tracer tracer;
  LockWorkload workload{options.seed, &tracer};
  return runTraced(options, workload, tracer, 1200, 1200);
}

}  // namespace perfbench
