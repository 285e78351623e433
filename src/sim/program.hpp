// Flat bytecode representation of a compiled module (the fast sim backend).
//
// A Program is an immutable compilation artifact: a value arena layout plus
// branch-light instruction tapes.  Every signal, constant, key slice and
// expression temporary owns a *slot* — a (word offset, width) pair into a
// flat array of 64-bit words.  Values of width <= 64 (the overwhelmingly
// common case) occupy exactly one word and are manipulated by *narrow*
// opcodes whose operands are raw word offsets — no per-node allocation, no
// virtual dispatch, no BitVector construction.  Wider values (concatenation
// results) keep the multi-word little-endian layout and fall back to *wide*
// opcodes executed through the shared BitVector routines.
//
// Tapes:
//  * one combinational tape — the levelized schedule lowered in order, with
//    if/case lowered to conditional jumps;
//  * one sequential tape per clock — non-blocking assignments store into
//    shadow slots that are double-buffered against the live signal slots by
//    the executor (copy-in before the tape, commit after), so all right-hand
//    sides observe the pre-edge state.
//
// Programs are produced by sim::Compiler and executed by sim::SlicedSim
// (sliced encoding) or by the test-only scalar oracle in tests/sim/
// (offset encoding); one Program can back any number of concurrently running
// executors (each owns its own arena).
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/module.hpp"

namespace rtlock::sim {

enum class Opcode : std::uint8_t {
  // ---- narrow value ops: dst/a/b/c are arena word offsets unless noted;
  //      results are masked to `width` bits ----
  Copy,        // dst = a & mask
  Add,         // dst = (a + b) & mask
  Sub,         // dst = (a - b) & mask
  Mul,         // dst = (a * b) & mask
  Div,         // dst = b == 0 ? mask : a / b
  Mod,         // dst = b == 0 ? mask : a % b
  Pow,         // dst = pow(a, b) mod 2^64, & mask
  Shl,         // dst = b >= width ? 0 : (a << b) & mask
  Shr,         // c = width of operand a; dst = b >= c ? 0 : (a >> b) & mask
  And,         // dst = a & b
  Or,          // dst = a | b
  Xor,         // dst = a ^ b
  Xnor,        // dst = ~(a ^ b) & mask
  Lt,          // dst = a < b
  Le,          // dst = a <= b
  Eq,          // dst = a == b
  Ne,          // dst = a != b
  LAnd,        // dst = (a != 0) && (b != 0)
  LOr,         // dst = (a != 0) || (b != 0)
  Neg,         // dst = -a & mask
  Not,         // dst = ~a & mask
  LogNot,      // dst = a == 0
  RedAnd,      // b = width of operand a; dst = popcount(a) == b
  RedOr,       // dst = a != 0
  RedXor,      // dst = popcount(a) & 1
  Select,      // dst = (a != 0 ? b : c) & mask
  SliceLow,    // b = lo; dst = (a >> lo) & mask
  ShlConst,    // b = amount (sliced lowering only); dst = (a << b) & mask
  ConcatPair,  // c = width of b; dst = ((a << c) | b) & mask
  Insert,      // b = lo, c = slice width m; dst = dst with bits [lo, lo+m) := a
  // ---- control flow: dst is a tape index ----
  Jump,        // pc = dst
  JumpIfZero,  // pc = dst when word a == 0
  JumpIfEq,    // pc = dst when word a == word b
  // ---- wide fallback: dst/a/b are slot ids, executed via BitVector ----
  WideBinary,  // c = rtl::OpKind; dst = a <op> b
  WideUnary,   // c = rtl::UnaryOp; dst = <op> a
  WideSelect,  // dst = (a.any() ? b : c).resized(dst.width)
  WideConcat,  // a = arg-pool start, b = part count
  WideSlice,   // b = lo; dst = a[lo + dst.width - 1 : lo]
  WideCopy,    // dst = a.resized(dst.width)
  WideInsert,  // b = lo, c = slice width; dst with bits [lo, lo+c) := a
};

/// One fixed-size tape entry.  `width` is the result width for narrow value
/// ops (1..64) and unused for control flow / wide ops.
struct Instr {
  Opcode op = Opcode::Copy;
  std::uint8_t width = 0;
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
};

/// One value in the arena: `wordCount()` words starting at `offset`.
struct Slot {
  std::int32_t offset = 0;
  std::int32_t width = 1;

  [[nodiscard]] int wordCount() const noexcept { return (width + 63) / 64; }
};

/// A key-bit slice referenced by the module; the executor materialises the
/// slice into `slot` whenever the key changes (zero per-cycle cost).
struct KeyBinding {
  int firstBit = 0;
  int width = 1;
  std::int32_t slot = 0;
};

/// Copy directive committing a shadow slot back into its live signal slot
/// (and seeding the shadow from the live value before a sequential tape).
/// The offsets drive the scalar word arena; the slot ids drive the bit-sliced
/// plane arena, whose layout is derived per executor.
struct ShadowCopy {
  std::int32_t liveOffset = 0;
  std::int32_t shadowOffset = 0;
  std::int32_t words = 0;
  std::int32_t liveSlot = 0;
  std::int32_t shadowSlot = 0;
};

/// Sequential tape for one clock.
struct SequentialTape {
  rtl::SignalId clock = 0;
  std::vector<Instr> tape;
  std::vector<ShadowCopy> shadows;
};

class Program {
 public:
  [[nodiscard]] const std::vector<Slot>& slots() const noexcept { return slots_; }
  [[nodiscard]] const std::vector<std::uint64_t>& initialWords() const noexcept {
    return initialWords_;
  }
  [[nodiscard]] const Slot& signalSlot(rtl::SignalId signal) const {
    return slots_[static_cast<std::size_t>(signalSlots_.at(signal))];
  }
  [[nodiscard]] std::int32_t signalSlotId(rtl::SignalId signal) const {
    return signalSlots_.at(signal);
  }
  [[nodiscard]] const std::vector<Instr>& combTape() const noexcept { return combTape_; }
  [[nodiscard]] const std::vector<SequentialTape>& sequentialTapes() const noexcept {
    return seqTapes_;
  }
  [[nodiscard]] const std::vector<KeyBinding>& keyBindings() const noexcept {
    return keyBindings_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& argPool() const noexcept { return argPool_; }
  [[nodiscard]] int keyWidth() const noexcept { return keyWidth_; }
  [[nodiscard]] const std::vector<rtl::SignalId>& clocks() const noexcept { return clocks_; }

  /// True for programs produced by Compiler::compileSliced: operands are slot
  /// ids (not word offsets), tapes are jump-free (if/case are lowered to
  /// predicated masked selects) and there are no Wide* opcodes.  Such
  /// programs run on sim::SlicedSim; offset-encoded programs run on the
  /// scalar oracle in tests/sim/.  The two encodings are never mixed.
  [[nodiscard]] bool slicedLowering() const noexcept { return sliced_; }

  /// Total tape length across the combinational and sequential tapes.
  [[nodiscard]] std::size_t instructionCount() const noexcept;

 private:
  friend class Compiler;

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> initialWords_;  // constants baked in, signals zero
  std::vector<std::int32_t> signalSlots_;    // SignalId -> slot id
  std::vector<Instr> combTape_;
  std::vector<SequentialTape> seqTapes_;
  std::vector<KeyBinding> keyBindings_;
  std::vector<std::int32_t> argPool_;  // slot-id lists for WideConcat
  std::vector<rtl::SignalId> clocks_;
  int keyWidth_ = 0;
  bool sliced_ = false;
};

/// Mask keeping the low `width` bits of a word; `width` must be in [1, 64].
[[nodiscard]] inline std::uint64_t narrowMask(int width) noexcept {
  return ~std::uint64_t{0} >> (64 - width);
}

}  // namespace rtlock::sim
