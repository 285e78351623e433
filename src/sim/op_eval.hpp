// Operator semantics shared by both simulation backends.
//
// The sliced tape calls them from its per-lane fallback; the test-only
// oracles in tests/sim/ apply them while walking the expression tree and
// from the scalar tape's wide-value opcodes, so a single definition fixes
// the semantics of every operator for all three.
#pragma once

#include "rtl/ops.hpp"
#include "sim/bitvector.hpp"

namespace rtlock::sim {

/// Result of `lhs <op> rhs` truncated/extended to `width` bits.  Unsigned
/// semantics throughout: >>> behaves as logical shift (signed nets are
/// outside the subset).
[[nodiscard]] BitVector evalBinaryOp(rtl::OpKind op, const BitVector& lhs, const BitVector& rhs,
                                     int width);

/// Result of the unary operator applied to `operand` at `width` bits.
[[nodiscard]] BitVector evalUnaryOp(rtl::UnaryOp op, const BitVector& operand, int width);

}  // namespace rtlock::sim
