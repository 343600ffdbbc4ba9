#include "dse/combinator_bounds.hpp"

#include <algorithm>

#include "asp/proof.hpp"
#include "asp/solver.hpp"
#include "dse/objective_manager.hpp"

namespace aspmt::dse {

namespace {

asp::TheoryJustification justification(std::size_t axis, std::int64_t bound,
                                       asp::Lit activation) {
  return asp::TheoryJustification{
      asp::TheoryTag::CombinatorBound,
      {static_cast<std::int64_t>(axis), bound,
       activation == asp::kLitUndef ? 0 : asp::proof_int(activation)}};
}

}  // namespace

void CombinatorBoundPropagator::add_bound(std::size_t axis, std::int64_t bound,
                                          asp::Lit activation) {
  if (proof_ != nullptr) proof_->def_objective_bound(axis, bound, activation);
  bounds_.push_back(Bound{axis, bound, activation});
}

bool CombinatorBoundPropagator::enforce(asp::Solver& solver) {
  if (bounds_.empty()) return true;  // leaf-only specs: nothing to sweep
  tightest_.assign(objectives_.count(), nullptr);
  for (const Bound& b : bounds_) {
    if (b.activation != asp::kLitUndef &&
        solver.value(b.activation) != asp::Lbool::True) {
      continue;
    }
    const std::int64_t lb = objectives_.lower_bound(b.axis);
    if (lb <= b.bound) {
      const Bound*& t = tightest_[b.axis];
      if (t == nullptr || b.bound < t->bound) t = &b;
      continue;
    }
    ++conflicts_;
    clause_.clear();
    objectives_.explain(b.axis, b.bound + 1, clause_);
    std::sort(clause_.begin(), clause_.end());
    clause_.erase(std::unique(clause_.begin(), clause_.end()), clause_.end());
    for (asp::Lit& l : clause_) l = ~l;
    if (b.activation != asp::kLitUndef) clause_.push_back(~b.activation);
    const asp::TheoryJustification just =
        justification(b.axis, b.bound, b.activation);
    return solver.add_theory_clause(clause_, &just);
  }
  for (const Bound* b : tightest_) {
    if (b != nullptr && !imply_weighted(solver, *b)) return false;
  }
  return true;
}

bool CombinatorBoundPropagator::imply_weighted(asp::Solver& solver,
                                               const Bound& b) {
  const ObjectiveTerm& term = objectives_.term(b.axis);
  if (term.kind() != ObjectiveTerm::Kind::Weighted) return true;
  const std::vector<ObjectiveTerm>& children = term.children();
  const std::vector<std::int64_t>& weights = term.params();
  child_lbs_.clear();
  __int128 fixed = 0;  // Σ w_i·lb_i <= B: enforce() raised no conflict
  for (std::size_t i = 0; i < children.size(); ++i) {
    child_lbs_.push_back(children[i].lower_bound());
    fixed += static_cast<__int128>(weights[i]) * child_lbs_[i];
  }
  const asp::TheoryJustification just =
      justification(b.axis, b.bound, b.activation);
  for (std::size_t j = 0; j < children.size(); ++j) {
    const ObjectiveTerm& child = children[j];
    if (!child.is_linear_leaf()) continue;
    const theory::LinearSumPropagator& sums = *child.linear();
    const theory::LinearSumPropagator::SumId sum = child.leaf_id();
    const __int128 w = weights[j];
    const __int128 others = fixed - w * child_lbs_[j];
    // Smallest primary value of child j that pushes the fold past B.
    const __int128 need = (static_cast<__int128>(b.bound) + 1 - others + w - 1) / w;
    const __int128 min_weight = need - sums.lower_bound(sum);
    const std::vector<theory::Term>& terms = sums.terms(sum);
    bool have_base = false;
    for (const theory::Term& t : terms) {  // heaviest first
      if (t.weight < min_weight) break;
      if (solver.value(t.guard) != asp::Lbool::Undef) continue;
      if (!have_base) {
        base_.clear();
        for (std::size_t i = 0; i < children.size(); ++i) {
          if (i != j) children[i].explain(child_lbs_[i], base_);
        }
        for (asp::Lit& l : base_) l = ~l;
        if (b.activation != asp::kLitUndef) base_.push_back(~b.activation);
        have_base = true;
      }
      clause_.assign(base_.begin(), base_.end());
      const std::size_t from = clause_.size();
      // need − w_g <= lower_j by the loop guard, so the cast is exact.
      sums.explain_lower_bound(sum, static_cast<std::int64_t>(need - t.weight),
                               clause_);
      for (std::size_t k = from; k < clause_.size(); ++k) clause_[k] = ~clause_[k];
      clause_.push_back(~t.guard);
      ++implications_;
      if (!solver.add_theory_clause(clause_, &just)) return false;
    }
  }
  return true;
}

}  // namespace aspmt::dse
