// End-to-end evaluation pipeline (Sec. 5 attack setup).
//
// For one benchmark and one locking algorithm:
//   * lock `testLocks` fresh clones of the benchmark with different keys
//     (key budget = 75 % of the design's lockable operations);
//   * run the SnapShot attack against every locked sample;
//   * aggregate KPA statistics.
#pragma once

#include <string>

#include "attack/snapshot.hpp"
#include "sim/harness.hpp"
#include "support/task_pool.hpp"

namespace rtlock::attack {

struct EvaluationConfig {
  int testLocks = 10;               // locked samples per benchmark (paper: 10)
  double keyBudgetFraction = 0.75;  // of the original design's lockable ops
  SnapshotConfig snapshot;
  /// Off-by-default safety net: simulate each locked sample against the
  /// original under its correct key and count mismatching samples in
  /// EvaluationResult::functionalFailures.  Uses an independent fixed-seed
  /// stimulus stream, so enabling it changes no KPA/metric output bit.
  bool verifyFunctional = false;
  /// Simulator backing the verifyFunctional equivalence checks.  The
  /// SnapShot attack itself is structural/ML and never simulates.
  sim::SimBackend simBackend = sim::SimBackend::Sliced;
  /// Worker threads for the sample loop of the overload that makes its own
  /// pool: 0 = hardware concurrency, 1 = serial reference path (no worker
  /// threads).  Results are bit-identical at every thread count: sample i
  /// always draws from `substream(i)` of a root forked once from the
  /// caller's rng, and the per-sample outcomes are aggregated in sample
  /// order.
  int threads = 0;
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

/// Evaluates `algorithm` on per-worker clones of `original`.  The sample
/// loop is sharded across workers; each worker clones the module once and
/// restores it between samples through the engine's undo path, and each
/// sample owns an Rng substream.
///
/// Contract -------------------------------------------------------------------
/// Ownership: `original` and `table` are borrowed const for the duration of
///   the call and never mutated — all locking happens on private per-worker
///   clones that die with the call.
/// Determinism: the result is a pure function of (original, algorithm,
///   table, config minus threads, rng state); the worker count is proven not
///   to change a single output bit (tests/integration/determinism_test.cpp).
///   Per-sample outcomes are aggregated in sample order.  `rng` advances by
///   exactly one draw per call regardless of thread or sample count.
/// Thread-safety: safe to call concurrently with distinct `rng` objects;
///   workers never share mutable state.  Do not share one Rng across
///   concurrent callers.
/// Parallelism: this overload runs the samples on a local pool of
///   `config.threads` workers (capped at config.testLocks).
[[nodiscard]] EvaluationResult evaluateBenchmark(const rtl::Module& original,
                                                 const std::string& benchmarkName,
                                                 lock::Algorithm algorithm,
                                                 const lock::PairTable& table,
                                                 const EvaluationConfig& config,
                                                 support::Rng& rng);

/// The same evaluation with the samples fanned out on `pool`
/// (TaskPool::fanOut) instead of a local pool; `config.threads` is ignored.
/// Called from a task running on `pool` — a campaign grid cell — the calling
/// worker runs the cell's samples itself while idle workers take the rest,
/// so cells and samples share the pool's workers and never more than
/// threadCount() samples run at once.  Every sample runs even when the pool
/// is draining after requestStop(), so a started evaluation always finishes
/// whole.  Results are bit-identical to the overload above.
[[nodiscard]] EvaluationResult evaluateBenchmark(const rtl::Module& original,
                                                 const std::string& benchmarkName,
                                                 lock::Algorithm algorithm,
                                                 const lock::PairTable& table,
                                                 const EvaluationConfig& config,
                                                 support::Rng& rng, support::TaskPool& pool);

}  // namespace rtlock::attack
