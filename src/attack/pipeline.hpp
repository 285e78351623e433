// End-to-end evaluation pipeline (Sec. 5 attack setup).
//
// For one benchmark and one locking algorithm:
//   * lock `testLocks` fresh clones of the benchmark with different keys
//     (key budget = 75 % of the design's lockable operations);
//   * run the SnapShot attack against every locked sample;
//   * aggregate KPA statistics.
//
// The samples always run on a caller-supplied support::TaskPool: `rtlock
// eval`/`work`, the serve daemon and the benches each size one pool by
// their --threads and pass it in, so grid cells and their samples share the
// same workers.
#pragma once

#include <string>

#include "attack/snapshot.hpp"
#include "support/task_pool.hpp"

namespace rtlock::attack {

struct EvaluationConfig {
  int testLocks = 10;               // locked samples per benchmark (paper: 10)
  double keyBudgetFraction = 0.75;  // of the original design's lockable ops
  SnapshotConfig snapshot;
  /// Off-by-default safety net: simulate each locked sample against the
  /// original under its correct key and count mismatching samples in
  /// EvaluationResult::functionalFailures.  Uses an independent fixed-seed
  /// stimulus stream, so enabling it changes no KPA/metric output bit.  The
  /// check runs on sim::Harness; the SnapShot attack itself is
  /// structural/ML and never simulates.
  bool verifyFunctional = false;
};

struct EvaluationResult {
  std::string benchmark;
  lock::Algorithm algorithm = lock::Algorithm::AssureSerial;
  int samples = 0;
  double meanKpa = 0.0;
  double minKpa = 0.0;
  double maxKpa = 0.0;
  double meanKeyBits = 0.0;        // attacked (operation) key bits per sample
  double meanBitsUsed = 0.0;       // key bits consumed by locking (ERA may exceed budget)
  double meanGlobalMetric = 0.0;   // M^g_sec of the locked samples
  double meanRestrictedMetric = 0.0;
  /// Samples whose locked module misbehaved under the correct key; always 0
  /// unless config.verifyFunctional found a locking bug.
  int functionalFailures = 0;
};

/// Evaluates `algorithm` on per-worker clones of `original`, fanning the
/// locked samples out on `pool` (TaskPool::fanOut).  Each worker clones the
/// module once and restores it between samples through the engine's undo
/// path, and each sample owns an Rng substream.
///
/// Contract -------------------------------------------------------------------
/// Ownership: `original` and `table` are borrowed const for the duration of
///   the call and never mutated — all locking happens on private per-worker
///   clones that die with the call.
/// Determinism: the result is a pure function of (original, algorithm,
///   table, config, rng state); the pool size is proven not to change a
///   single output bit (tests/integration/determinism_test.cpp).  Sample i
///   always draws from `substream(i)` of a root forked once from the
///   caller's rng, and per-sample outcomes are aggregated in sample order.
///   `rng` advances by exactly one draw per call regardless of pool or
///   sample count.
/// Thread-safety: safe to call concurrently with distinct `rng` objects;
///   workers never share mutable state.  Do not share one Rng across
///   concurrent callers.
/// Parallelism: called from a task running on `pool` — a grid cell — the
///   calling worker runs the cell's samples itself while idle workers take
///   the rest, so cells and samples share the pool's workers and never more
///   than threadCount() samples run at once.  Called from any other thread,
///   the call blocks while the workers run the samples; a one-thread pool is
///   the serial reference path.  Every sample runs even when the pool is
///   draining after requestStop(), so a started evaluation always finishes
///   whole.
[[nodiscard]] EvaluationResult evaluateBenchmark(const rtl::Module& original,
                                                 const std::string& benchmarkName,
                                                 lock::Algorithm algorithm,
                                                 const lock::PairTable& table,
                                                 const EvaluationConfig& config,
                                                 support::Rng& rng, support::TaskPool& pool);

}  // namespace rtlock::attack
