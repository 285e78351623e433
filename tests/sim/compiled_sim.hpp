// Fast cycle simulator executing a compiled bytecode Program.
//
// CompiledSim mirrors the Evaluator interface (reset / setValue / setKey /
// settle / clockEdge / value) but executes a flat, branch-light tape over a
// preallocated word arena instead of walking the IR:
//  * zero per-node allocation — signals <= 64 bits wide (the common case)
//    live in single words manipulated in place; wide concat values keep the
//    multi-word BitVector representation via fallback opcodes;
//  * non-blocking updates are double-buffered through shadow slots instead
//    of a per-edge rebuilt update list;
//  * if/case run as conditional jumps;
//  * key slices materialise into arena slots on setKey — zero per-cycle key
//    handling.
//
// One Program (shared_ptr) can back many CompiledSim instances; each owns
// its own arena, so hypothesis keys or stimuli can be streamed in parallel.
//
// The reference interpreter (sim/evaluator.hpp) stays the executable
// semantics; tests/sim/compiled_sim_test.cpp differential-tests the two
// backends against each other over every registry design.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/bitvector.hpp"
#include "sim/program.hpp"
#include "sim/sliced_sim.hpp"

namespace rtlock::sim {

class CompiledSim {
 public:
  /// Compiles `module` privately.  The module may be mutated or destroyed
  /// afterwards; recompile after relocking.
  explicit CompiledSim(const rtl::Module& module);

  /// Runs a pre-compiled program (shared across instances).
  explicit CompiledSim(std::shared_ptr<const Program> program);

  /// Zeroes all signals (registers included) and the key.
  void reset();

  void setValue(rtl::SignalId signal, const BitVector& value);
  [[nodiscard]] BitVector value(rtl::SignalId signal) const;

  /// Key must match the module's key width (ignored for unlocked modules).
  void setKey(const BitVector& key);

  /// Settles all combinational logic (call after changing inputs).
  void settle();

  /// Applies one positive edge on `clock`, then resettles.
  void clockEdge(rtl::SignalId clock);

  /// Clocks that drive at least one sequential process.
  [[nodiscard]] const std::vector<rtl::SignalId>& clocks() const noexcept {
    return program_->clocks();
  }

  [[nodiscard]] const Program& program() const noexcept { return *program_; }

  // ---- batch-stimulus API ----

  /// One batch run description, shared with SlicedSim::runVectors.
  using BatchRequest = SlicedSim::BatchRequest;

  /// Streams many stimulus/key pairs through the compiled tape (compile
  /// once, simulate many).  `stimuli[v]` holds `cycles * inputs.size()`
  /// values in cycle-major order; `keys` is empty (key stays zero) or holds
  /// one key per vector.  Returns one output trace per vector: outputs
  /// sampled after each settle and — for clocked runs — again after each
  /// edge, in `outputs` order.
  [[nodiscard]] std::vector<std::vector<BitVector>> runVectors(
      const BatchRequest& request, const std::vector<std::vector<BitVector>>& stimuli,
      const std::vector<BitVector>& keys);

 private:
  void exec(const std::vector<Instr>& tape);
  [[nodiscard]] BitVector load(std::int32_t slotId) const;
  void store(std::int32_t slotId, const BitVector& value);

  std::shared_ptr<const Program> program_;
  std::vector<std::uint64_t> words_;
  BitVector key_{1};
};

}  // namespace rtlock::sim
