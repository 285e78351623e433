#include "composed_attack.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "attack/harvest.hpp"
#include "core/assure.hpp"

namespace perfbench {

using namespace rtlock;

AttackSpanNames::AttackSpanNames(Tracer& tracer)
    : snapshot(tracer.intern("attack.snapshot")),
      extract(tracer.intern("attack.extract")),
      relock(tracer.intern("core.relock")),
      harvest(tracer.intern("attack.harvest")),
      undo(tracer.intern("core.undo")),
      automl(tracer.intern("ml.automl")),
      predict(tracer.intern("attack.predict")) {}

std::size_t distinctRowCount(const ml::Dataset& data) {
  std::unordered_set<std::uint64_t> rows;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mixIn = [&hash](const void* bytes, std::size_t size) {
      const auto* p = static_cast<const unsigned char*>(bytes);
      for (std::size_t b = 0; b < size; ++b) hash = (hash ^ p[b]) * 0x100000001b3ULL;
    };
    const ml::RowView row = data.row(i);
    mixIn(row.data(), row.size_bytes());
    const int label = data.label(i);
    mixIn(&label, sizeof label);
    rows.insert(hash);
  }
  return rows.size();
}

ComposedAttack composedSnapshotAttack(rtl::Module& target,
                                      const std::vector<lock::LockRecord>& records,
                                      const lock::PairTable& table,
                                      const attack::SnapshotConfig& config, support::Rng& rng,
                                      Tracer& tracer, const AttackSpanNames& names,
                                      std::optional<ml::Dataset>* trainingOut) {
  ComposedAttack composed;
  ml::Dataset training{attack::featureCount(config.locality)};
  {
    const Tracer::Scope attackSpan{tracer, names.snapshot};

    std::vector<attack::Locality> targetLocalities;
    std::unordered_map<int, const ml::FeatureRow*> targetFeatures;
    {
      const Tracer::Scope span{tracer, names.extract};
      targetLocalities = attack::extractLocalities(target, config.locality);
      targetFeatures.reserve(targetLocalities.size());
      for (const attack::Locality& locality : targetLocalities) {
        targetFeatures.emplace(locality.keyIndex, &locality.features);
      }
    }

    lock::LockEngine engine{target, table};
    attack::LocalityHarvester harvester{engine, config.locality};
    for (int round = 0; round < config.relockRounds; ++round) {
      const std::size_t checkpoint = engine.checkpoint();
      {
        const Tracer::Scope span{tracer, names.relock};
        const int budget = std::max(
            1, static_cast<int>(config.relockBudgetFraction *
                                static_cast<double>(engine.totalLockableOps())));
        harvester.beginRound();
        (void)lock::assureRandomLock(engine, budget, rng, lock::ReportDetail::Summary);
      }
      {
        const Tracer::Scope span{tracer, names.harvest};
        if (harvester.roundHasClonedKeyMuxes()) ++composed.fallbackRounds;
        harvester.harvestInto(training);
      }
      {
        const Tracer::Scope span{tracer, names.undo};
        engine.undoTo(checkpoint);
      }
      if (round == 0) {
        training.reserveRows(training.size() *
                             static_cast<std::size_t>(config.relockRounds - 1));
      }
      ++composed.rounds;
    }

    ml::AutoMlResult automl;
    {
      const Tracer::Scope span{tracer, names.automl};
      automl = ml::autoSelect(training, config.automl, rng);
    }

    const Tracer::Scope span{tracer, names.predict};
    attack::SnapshotResult& result = composed.result;
    result.modelName = automl.bestName;
    result.cvAccuracy = automl.bestCvAccuracy;
    result.trainingRows = training.size();
    result.predictions.reserve(records.size());
    for (const lock::LockRecord& record : records) {
      const auto it = targetFeatures.find(record.keyIndex);
      if (it == targetFeatures.end()) throw support::Error{"target key bit has no locality"};
      const int predicted = automl.model->predict(*it->second);
      result.predictions.push_back(predicted);
      ++result.keyBits;
      if (predicted == (record.keyValue ? 1 : 0)) ++result.correct;
    }
    result.kpa = result.keyBits == 0 ? 0.0
                                     : 100.0 * static_cast<double>(result.correct) /
                                           static_cast<double>(result.keyBits);
    composed.leaderboard = std::move(automl.leaderboard);
  }
  if (trainingOut != nullptr) trainingOut->emplace(std::move(training));
  return composed;
}

std::string checkSameAttack(const ComposedAttack& composed,
                            const attack::SnapshotResult& reference) {
  const attack::SnapshotResult& mine = composed.result;
  if (mine.kpa != reference.kpa) {
    return "KPA " + std::to_string(mine.kpa) + " != " + std::to_string(reference.kpa);
  }
  if (mine.keyBits != reference.keyBits || mine.correct != reference.correct) {
    return "scored key bits differ";
  }
  if (mine.trainingRows != reference.trainingRows) {
    return "training rows " + std::to_string(mine.trainingRows) +
           " != " + std::to_string(reference.trainingRows);
  }
  if (mine.modelName != reference.modelName) {
    return "winner " + mine.modelName + " != " + reference.modelName;
  }
  if (mine.cvAccuracy != reference.cvAccuracy) return "winner CV accuracy differs";
  if (mine.predictions != reference.predictions) return "predictions differ";
  return {};
}

}  // namespace perfbench
