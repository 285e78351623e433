#include "attack/locality.hpp"

#include <algorithm>

#include "rtl/traverse.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::attack {

namespace {

using rtl::Expr;
using rtl::ExprKind;

constexpr int kConstantCode = 101;
constexpr int kSignalCode = 102;
constexpr int kKeyRefCode = 103;
constexpr int kUnaryCode = 104;
constexpr int kDesignTernaryCode = 105;
constexpr int kConcatCode = 106;
constexpr int kSliceCode = 107;

[[nodiscard]] int widthBucket(int width) noexcept {
  if (width <= 1) return 0;
  if (width <= 8) return 1;
  if (width <= 16) return 2;
  if (width <= 32) return 3;
  return 4;
}

}  // namespace

int featureCount(const LocalityConfig& config) noexcept { return config.extendedFeatures ? 6 : 2; }

int constructCode(const rtl::Expr& expr) noexcept {
  switch (expr.kind()) {
    case ExprKind::Binary:
      return 1 + static_cast<int>(static_cast<const rtl::BinaryExpr&>(expr).op());
    case ExprKind::Ternary:
      return static_cast<const rtl::TernaryExpr&>(expr).isKeyMux() ? kMuxCode
                                                                   : kDesignTernaryCode;
    case ExprKind::Constant: return kConstantCode;
    case ExprKind::SignalRef: return kSignalCode;
    case ExprKind::KeyRef: return kKeyRefCode;
    case ExprKind::Unary: return kUnaryCode;
    case ExprKind::Concat: return kConcatCode;
    case ExprKind::Slice: return kSliceCode;
  }
  return kTopCode;
}

void appendLocalityFeatures(const rtl::TernaryExpr& mux, int parentCode,
                            const LocalityConfig& config, ml::FeatureRow& out) {
  out.push_back(static_cast<double>(constructCode(mux.thenExpr())));
  out.push_back(static_cast<double>(constructCode(mux.elseExpr())));
  if (config.extendedFeatures) {
    out.push_back(static_cast<double>(rtl::exprDepth(mux.thenExpr())));
    out.push_back(static_cast<double>(rtl::exprDepth(mux.elseExpr())));
    out.push_back(static_cast<double>(parentCode));
    out.push_back(static_cast<double>(widthBucket(mux.width())));
  }
}

void KeyMuxWalk::visitTree(const Expr& root, int minKeyIndex) {
  // Explicit work list: locked designs nest muxes arbitrarily deep (every
  // relock adds a level), and the walk must not be the component that
  // overflows the stack on pathological chains.
  pending_.clear();
  pending_.emplace_back(&root, kTopCode);
  while (!pending_.empty()) {
    const auto [expr, parent] = pending_.back();
    pending_.pop_back();
    if (expr->kind() == ExprKind::Ternary) {
      const auto& ternary = static_cast<const rtl::TernaryExpr&>(*expr);
      if (ternary.isKeyMux()) {
        const int keyIndex = static_cast<const rtl::KeyRefExpr&>(ternary.cond()).firstBit();
        if (keyIndex >= minKeyIndex) sites_.push_back(KeyMuxSite{keyIndex, &ternary, parent});
      }
    }
    const int myCode = constructCode(*expr);
    // Reverse push keeps the historical pre-order (left-to-right) visit.
    for (int i = expr->exprSlotCount() - 1; i >= 0; --i) {
      pending_.emplace_back(&expr->child(i), myCode);
    }
  }
}

const std::vector<KeyMuxSite>& KeyMuxWalk::collect(const rtl::Module& module, int minKeyIndex) {
  sites_.clear();
  for (const auto& assign : module.contAssigns()) visitTree(assign->value(), minKeyIndex);
  rtl::forEachStmt(module, [this, minKeyIndex](const rtl::Stmt& stmt) {
    for (int i = 0; i < stmt.exprSlotCount(); ++i) visitTree(stmt.exprAt(i), minKeyIndex);
  });
  // NOTE: deliberately std::sort, not stable_sort.  Duplicate key indices
  // (cloned muxes in non-three-address operand subtrees, e.g. SASC) land in
  // implementation-defined relative order — and that exact order is baked
  // into the committed BENCH_baseline.json quality rows.  The sort runs on
  // the sites, before any feature is computed: introsort's permutation
  // depends only on the comparison outcomes, which equal those of the
  // historical sort over whole localities, so the tie order is unchanged.
  // Changing the tie behaviour here is a one-way re-baselining event.
  std::sort(sites_.begin(), sites_.end(),
            [](const KeyMuxSite& a, const KeyMuxSite& b) { return a.keyIndex < b.keyIndex; });
  return sites_;
}

std::vector<Locality> extractLocalities(const rtl::Module& module, const LocalityConfig& config,
                                        int minKeyIndex) {
  KeyMuxWalk walk;
  const std::vector<KeyMuxSite>& sites = walk.collect(module, minKeyIndex);
  std::vector<Locality> localities(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    localities[i].keyIndex = sites[i].keyIndex;
    appendLocalityFeatures(*sites[i].mux, sites[i].parentCode, config, localities[i].features);
  }
  return localities;
}

}  // namespace rtlock::attack
