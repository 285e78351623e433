// The SnapShot attack composed from rtlock's public calls, with a span
// around each layer call: extract -> per round (relock, harvest, undo) ->
// autoSelect -> predict.  It makes the same calls in the same order as
// attack::snapshotAttack, so on the same inputs and Rng state it must give
// the same result; checkSameAttack() holds it to that.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "attack/snapshot.hpp"
#include "trace.hpp"

namespace perfbench {

/// Span names the composed attack records, interned once per tracer.
struct AttackSpanNames {
  explicit AttackSpanNames(Tracer& tracer);
  std::uint32_t snapshot, extract, relock, harvest, undo, automl, predict;
};

struct ComposedAttack {
  rtlock::attack::SnapshotResult result;
  std::vector<rtlock::ml::LeaderboardEntry> leaderboard;
  std::size_t rounds = 0;
  std::size_t fallbackRounds = 0;  // rounds harvested through the full-walk extractor
  std::size_t distinctRows = 0;    // distinct (features, label) training rows, when counted
};

/// Runs the composed attack on `target` (restored before returning, like
/// snapshotAttack).  Spans nest under whatever span is open on the thread.
/// With `trainingOut`, the training set is moved there, so the caller can
/// count its distinct rows outside the spans it times.
[[nodiscard]] ComposedAttack composedSnapshotAttack(
    rtlock::rtl::Module& target, const std::vector<rtlock::lock::LockRecord>& records,
    const rtlock::lock::PairTable& table, const rtlock::attack::SnapshotConfig& config,
    rtlock::support::Rng& rng, Tracer& tracer, const AttackSpanNames& names,
    std::optional<rtlock::ml::Dataset>* trainingOut = nullptr);

/// Distinct (features, label) rows of `data`, counted by a 64-bit FNV-1a
/// hash of each row's bytes (a collision could only undercount by one).
[[nodiscard]] std::size_t distinctRowCount(const rtlock::ml::Dataset& data);

/// Empty when `composed` matches `reference` in KPA, key bits, training
/// rows, winning model, CV accuracy and every prediction; otherwise a
/// description of the first difference.
[[nodiscard]] std::string checkSameAttack(const ComposedAttack& composed,
                                          const rtlock::attack::SnapshotResult& reference);

}  // namespace perfbench
