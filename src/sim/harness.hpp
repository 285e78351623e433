// Simulation harnesses: functional-equivalence checking and output-corruption
// measurement between an original design and its locked counterpart.
//
// These are the verification backbone of the locking test-suite: every
// locking algorithm must preserve functionality under the correct key
// (equivalence) and should corrupt outputs under wrong keys (corruption).
//
// The harness runs on the bit-sliced tape (sim/sliced_sim.hpp), which packs
// up to 64 stimulus vectors (or 64 (key, vector) pairs in
// outputCorruptionBatch) into one tape pass — the hot shape for oracle-style
// attacks that measure corruption under thousands of hypothesis keys.
// Stimuli are drawn from the passed rng in the serial order (vector ->
// cycle -> input), so corruption values and mismatch reports equal those of
// a one-vector-at-a-time replay on the scalar tape; tests/sim/harness_test.cpp
// pins that parity against a scalar replay written in the test.  The free
// functions are one-shot conveniences with identical semantics.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rtl/module.hpp"
#include "sim/sliced_sim.hpp"

namespace rtlock::sim {

/// The simulator behind harness sweeps; the bit-sliced tape is the only one.
/// The enum and the Harness constructor's third parameter remain only
/// because perfbench/src/eval_grid.cpp spells
/// `Harness{original, module, SimBackend::Sliced}`; drop both with the next
/// change to perfbench.
enum class SimBackend {
  Sliced,  ///< bit-sliced tape, up to 64 lanes per pass
};

struct EquivalenceOptions {
  int vectors = 32;       // random stimulus vectors
  int cyclesPerVector = 4;  // clock cycles applied per vector (sequential designs)
};

struct Mismatch {
  std::string output;
  int vector = 0;
  int cycle = 0;
};

/// Compile-once harness over a (golden, candidate) module pair.  Ports are
/// matched by name (`golden`'s ports must exist in `candidate` with the same
/// widths); single-clock sequential designs are driven through clockEdge.
/// Construction compiles both modules; each call then streams fresh random
/// stimuli, drawing from the passed rng one vector at a time.
///
/// Every call needs `options.vectors >= 1`, and `options.cyclesPerVector >=
/// 1` when the golden design is clocked (combinational designs run one
/// cycle per vector and ignore it); anything else is a ContractViolation —
/// such a call would compare nothing and report "equivalent".
class Harness {
 public:
  Harness(const rtl::Module& golden, const rtl::Module& candidate,
          SimBackend backend = SimBackend::Sliced);

  /// Drives both modules with identical random stimuli; `candidateKey` is
  /// applied to the candidate's key input when it has one (and to the golden
  /// module too when comparing two locked designs).  Returns the first
  /// mismatch in (vector, cycle, output) order — the one a serial replay
  /// would hit first — or nullopt when all compared outputs agree.  Vectors
  /// run 64 per tape pass, so the call may consume rng draws for up to a
  /// full 64-vector chunk past the mismatch.
  [[nodiscard]] std::optional<Mismatch> findMismatch(const BitVector& candidateKey,
                                                     const EquivalenceOptions& options,
                                                     support::Rng& rng);

  /// Average fraction of output bits that differ between the golden module
  /// and the candidate driven with `key` (0.0 = identical behaviour, 0.5 ≈
  /// uncorrelated outputs).  The differing-bit count is an integer sum, so
  /// the value is bit-identical to a serial replay's.
  [[nodiscard]] double outputCorruption(const BitVector& key,
                                        const EquivalenceOptions& options, support::Rng& rng);

  /// Corruption for many hypothesis keys over ONE shared stimulus set, drawn
  /// from `rng` exactly like a single outputCorruption call.  Element i is
  /// the corruption of keys[i] on those stimuli.  The (key, vector) pairs
  /// are packed 64 per tape pass — with K keys and V vectors the whole sweep
  /// costs ceil(K*V/64) passes instead of K*V — and each value equals a
  /// per-key outputCorruption call on the same rng seed.
  [[nodiscard]] std::vector<double> outputCorruptionBatch(std::span<const BitVector> keys,
                                                          const EquivalenceOptions& options,
                                                          support::Rng& rng);

 private:
  struct PortPair {
    rtl::SignalId golden = 0;
    rtl::SignalId candidate = 0;
    int width = 1;
    std::string name;  // golden-side port name (for mismatch reports)
  };

  /// Raises ContractViolation unless `options` compares at least one cycle
  /// of at least one vector (see the class comment).
  void requireComparable(const EquivalenceOptions& options) const;

  /// Pre-draws options.vectors random stimulus vectors in the serial draw
  /// order (vector -> cycle -> input); element [v] holds cycle-major values
  /// for the non-clock inputs.
  [[nodiscard]] std::vector<std::vector<BitVector>> drawStimuli(
      const EquivalenceOptions& options, support::Rng& rng) const;

  bool goldenLocked_ = false;
  bool candidateLocked_ = false;
  std::vector<PortPair> inputs_;  // clock excluded
  std::vector<PortPair> outputs_;
  std::optional<PortPair> clock_;
  SlicedSim golden_;
  SlicedSim candidate_;
};

/// One-shot form of Harness::findMismatch (compiles both modules per call).
[[nodiscard]] std::optional<Mismatch> findMismatch(const rtl::Module& golden,
                                                   const rtl::Module& candidate,
                                                   const BitVector& candidateKey,
                                                   const EquivalenceOptions& options,
                                                   support::Rng& rng);

/// True when no mismatch was found.
[[nodiscard]] bool functionallyEquivalent(const rtl::Module& golden, const rtl::Module& candidate,
                                          const BitVector& candidateKey,
                                          const EquivalenceOptions& options, support::Rng& rng);

/// One-shot form of Harness::outputCorruption (compiles both modules per
/// call).
[[nodiscard]] double outputCorruption(const rtl::Module& golden, const rtl::Module& locked,
                                      const BitVector& key, const EquivalenceOptions& options,
                                      support::Rng& rng);

}  // namespace rtlock::sim
