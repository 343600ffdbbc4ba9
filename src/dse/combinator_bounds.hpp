// Residual enforcement of `axis <= bound` constraints on combinator axes.
//
// Weighted and lexicographic axes cannot be fully decomposed into child
// theory bounds (ObjectiveTerm::push_bound returns false for them), so the
// ObjectiveManager registers the undischarged remainder here.  Whenever the
// axis' tree lower bound exceeds an active bound, the propagator injects
// the nogood
//
//   {~act} ∪ ~explain(axis, bound + 1)
//
// justified as a CB theory lemma over the OB bound declaration.  Tree lower
// bounds equal the axis value on total assignments, so no over-bound model
// survives check().
//
// On a weighted axis the tightest active bound B also propagates.  With
// child lower bounds lb_i, a linear-leaf child j must stay below
// need_j = ⌈(B + 1 − Σ_{i≠j} w_i·lb_i) / w_j⌉, so every undecided guard g of
// its primary sum with lower_j + w_g >= need_j is set false by
//
//   {~act} ∪ ~explain(others at lb_i) ∪ ~explain_j(need_j − w_g) ∪ {~g}
//
// — again a CB lemma: its negated guards fold past B.  Other children
// (difference logic, nested combinators) count as fixed contributions;
// lexicographic axes stay conflict-only.  Bounds accumulate like theory
// bounds do — an activation literal that leaves the trail simply
// deactivates its bound.
#pragma once

#include <cstdint>
#include <vector>

#include "asp/literal.hpp"
#include "asp/propagator.hpp"

namespace aspmt::asp {
class ProofLog;
class Solver;
}  // namespace aspmt::asp

namespace aspmt::dse {

class ObjectiveManager;

class CombinatorBoundPropagator final : public asp::TheoryPropagator {
 public:
  explicit CombinatorBoundPropagator(const ObjectiveManager& objectives)
      : objectives_(objectives) {}

  /// Mirror OB declarations into a proof log (attach before any bound).
  void set_proof(asp::ProofLog* proof) noexcept { proof_ = proof; }

  /// Register `axis <= bound` while `activation` holds (kLitUndef = always;
  /// unconditional bounds must only ever tighten, mirroring the theory
  /// propagators' contract).
  void add_bound(std::size_t axis, std::int64_t bound, asp::Lit activation);

  [[nodiscard]] std::size_t bound_count() const noexcept {
    return bounds_.size();
  }

  /// Nogoods raised because an axis' lower bound exceeded a bound.
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }
  /// Guards set false by a weighted axis' residual bound.
  [[nodiscard]] std::uint64_t implications() const noexcept {
    return implications_;
  }

  // -- TheoryPropagator ----------------------------------------------------
  bool propagate(asp::Solver& solver) override { return enforce(solver); }
  void undo_to(const asp::Solver&, std::size_t) override {}
  bool check(asp::Solver& solver) override { return enforce(solver); }

 private:
  struct Bound {
    std::size_t axis = 0;
    std::int64_t bound = 0;
    asp::Lit activation = asp::kLitUndef;
  };

  bool enforce(asp::Solver& solver);
  bool imply_weighted(asp::Solver& solver, const Bound& b);

  const ObjectiveManager& objectives_;
  std::vector<Bound> bounds_;
  asp::ProofLog* proof_ = nullptr;
  std::uint64_t conflicts_ = 0;
  std::uint64_t implications_ = 0;
  // Scratch, reused across calls: the tightest active bound per axis, the
  // children's lower bounds, and the clause under construction.
  std::vector<const Bound*> tightest_;
  std::vector<std::int64_t> child_lbs_;
  std::vector<asp::Lit> base_;
  std::vector<asp::Lit> clause_;
};

}  // namespace aspmt::dse
