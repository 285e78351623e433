#include "attack/harvest.hpp"

#include <algorithm>
#include <utility>

#include "support/diagnostics.hpp"

namespace rtlock::attack {

namespace {

using rtl::Expr;
using rtl::ExprKind;

}  // namespace

LocalityHarvester::LocalityHarvester(lock::LockEngine& engine, const LocalityConfig& config)
    : engine_(engine), config_(config) {
  RTLOCK_REQUIRE(engine.observer() == nullptr,
                 "the engine already has a lock observer attached");
  engine_.setObserver(this);
  beginRound();
}

LocalityHarvester::~LocalityHarvester() {
  if (engine_.observer() == this) engine_.setObserver(nullptr);
}

void LocalityHarvester::beginRound() {
  entries_.clear();
  events_.clear();
  roundKeyValues_.clear();
  roundKeyStart_ = engine_.module().keyWidth();
}

void LocalityHarvester::onLock(const lock::LockRecord& record, const rtl::ExprSlot& slot) {
  RTLOCK_REQUIRE(record.keyIndex >= roundKeyStart_,
                 "locality harvester saw a key bit below the round's key start "
                 "(undo past beginRound() is not supported mid-round)");
  RTLOCK_REQUIRE(record.keyIndex - roundKeyStart_ ==
                     static_cast<int>(roundKeyValues_.size()),
                 "locality harvester expects sequentially allocated key bits");
  roundKeyValues_.push_back(record.keyValue);
  events_.push_back(Event{record.keyIndex, entries_.size()});

  // The slot now holds the freshly installed mux; its parent construct is
  // the expression owning the slot (kTopCode for assignment/statement roots)
  // and can never change while the lock is applied.
  const Expr* parentExpr = slot.holder->asExpr();
  const int parentCode = parentExpr != nullptr ? constructCode(*parentExpr) : kTopCode;
  const auto& mux = static_cast<const rtl::TernaryExpr&>(*slot.get());
  entries_.push_back(Entry{record.keyIndex, &mux, parentCode, false});

  // Key muxes cloned into the dummy operand subtree (possible when operands
  // are not plain signal references) are localities the full walk would see
  // too — when they carry a key bit of this round.  Clones of key muxes from
  // before the round (keyIndex < roundKeyStart_) are walked through but not
  // recorded: the full walk filters them out as well, so they must not force
  // harvestInto's fallback.  Iterative pre-order over the dummy branch,
  // tracking parent codes.
  const Expr& dummyBranch = record.keyValue ? mux.elseExpr() : mux.thenExpr();
  const int dummyCode = constructCode(dummyBranch);
  pending_.clear();
  // Three-address operands are leaves, so the common case pushes nothing and
  // exits immediately; deeper operand subtrees get the full pre-order walk.
  for (int i = dummyBranch.exprSlotCount() - 1; i >= 0; --i) {
    const Expr& child = dummyBranch.child(i);
    if (child.exprSlotCount() == 0 && child.kind() != ExprKind::Ternary) continue;
    pending_.emplace_back(&child, dummyCode);
  }
  while (!pending_.empty()) {
    const auto [expr, parent] = pending_.back();
    pending_.pop_back();
    if (expr->kind() == ExprKind::Ternary) {
      const auto& ternary = static_cast<const rtl::TernaryExpr&>(*expr);
      if (ternary.isKeyMux()) {
        const int keyIndex =
            static_cast<const rtl::KeyRefExpr&>(ternary.cond()).firstBit();
        if (keyIndex >= roundKeyStart_) entries_.push_back(Entry{keyIndex, &ternary, parent, true});
      }
    }
    const int myCode = constructCode(*expr);
    for (int i = expr->exprSlotCount() - 1; i >= 0; --i) {
      pending_.emplace_back(&expr->child(i), myCode);
    }
  }
}

void LocalityHarvester::onUndo(const lock::LockRecord& record) {
  if (events_.empty()) return;  // lock predates this round's tracking
  RTLOCK_REQUIRE(events_.back().keyIndex == record.keyIndex,
                 "locality harvester expects LIFO undo");
  entries_.resize(events_.back().firstEntry);
  events_.pop_back();
  RTLOCK_REQUIRE(!roundKeyValues_.empty(),
                 "locality harvester round labels out of sync with undo");
  roundKeyValues_.pop_back();
}

template <typename Emit>
void LocalityHarvester::forEachHarvested(Emit&& emit) const {
  // Clone-free rounds (the common case) record only fresh muxes, whose key
  // bits are allocated sequentially: entries_ is already filtered and
  // ascending, so emit straight from it.
  if (!roundHasClonedKeyMuxes()) {
    for (const Entry& entry : entries_) {
      row_.clear();
      appendLocalityFeatures(*entry.mux, entry.parentCode, config_, row_);
      emit(entry, row_);
    }
    return;
  }
  // Entries arrive in lock-event order; clones can carry smaller key indices
  // than the mux that cloned them, so order by key index like the full-walk
  // extractor (stable sort of pointers — entries_ itself stays in event
  // order for undo bookkeeping).
  order_.clear();
  order_.reserve(entries_.size());
  for (const Entry& entry : entries_) order_.push_back(&entry);
  std::stable_sort(order_.begin(), order_.end(),
                   [](const Entry* a, const Entry* b) { return a->keyIndex < b->keyIndex; });
  for (const Entry* entry : order_) {
    row_.clear();
    appendLocalityFeatures(*entry->mux, entry->parentCode, config_, row_);
    emit(*entry, row_);
  }
}

bool LocalityHarvester::roundHasClonedKeyMuxes() const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [](const Entry& entry) { return entry.clone; });
}

std::vector<Locality> LocalityHarvester::harvest() const {
  std::vector<Locality> result;
  forEachHarvested([&result](const Entry& entry, const ml::FeatureRow& features) {
    result.push_back(Locality{entry.keyIndex, features});
  });
  return result;
}

void LocalityHarvester::harvestInto(ml::Dataset& out) const {
  const auto labelOf = [this](int keyIndex) {
    const auto labelIndex = static_cast<std::size_t>(keyIndex - roundKeyStart_);
    RTLOCK_REQUIRE(labelIndex < roundKeyValues_.size(),
                   "harvested a training mux with unknown key bit");
    return roundKeyValues_[labelIndex] ? 1 : 0;
  };
  if (roundHasClonedKeyMuxes()) {
    // Cloned key muxes mean duplicate key indices, whose relative order under
    // the extractor's std::sort is implementation-defined — and committed
    // into the quality baseline.  Reproduce it with the extractor's own site
    // walk and sort (one code path, the same tie order), then compute each
    // site's features into the row scratch.
    for (const KeyMuxSite& site : walk_.collect(engine_.module(), roundKeyStart_)) {
      row_.clear();
      appendLocalityFeatures(*site.mux, site.parentCode, config_, row_);
      out.add(row_, labelOf(site.keyIndex));
    }
    return;
  }
  forEachHarvested([&out, &labelOf](const Entry& entry, const ml::FeatureRow& features) {
    out.add(features, labelOf(entry.keyIndex));
  });
}

}  // namespace rtlock::attack
