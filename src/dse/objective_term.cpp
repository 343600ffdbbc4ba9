#include "dse/objective_term.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>


namespace aspmt::dse {

namespace {

/// Stride of the most significant lex child: Π_{j>0} (cap_j + 1).
/// Construction guarantees the full product fits an int64.
std::int64_t lex_head_stride(const std::vector<std::int64_t>& caps) {
  __int128 stride = 1;
  for (std::size_t j = 1; j < caps.size(); ++j) {
    stride *= static_cast<__int128>(caps[j]) + 1;
  }
  return static_cast<std::int64_t>(stride);
}

}  // namespace

ObjectiveTerm ObjectiveTerm::linear(std::string name,
                                    theory::LinearSumPropagator* propagator,
                                    theory::LinearSumPropagator::SumId sum) {
  if (propagator == nullptr) {
    throw std::invalid_argument("linear objective term without a propagator");
  }
  ObjectiveTerm t;
  t.kind_ = Kind::Linear;
  t.name_ = std::move(name);
  t.linear_ = propagator;
  t.sum_ = sum;
  t.id_ = sum;
  return t;
}

ObjectiveTerm ObjectiveTerm::makespan(std::string name,
                                      theory::DifferencePropagator* propagator,
                                      theory::DifferencePropagator::NodeId node) {
  if (propagator == nullptr) {
    throw std::invalid_argument("difference objective term without a propagator");
  }
  ObjectiveTerm t;
  t.kind_ = Kind::Difference;
  t.name_ = std::move(name);
  t.difference_ = propagator;
  t.node_ = node;
  t.id_ = node;
  return t;
}

ObjectiveTerm ObjectiveTerm::combinator(Kind kind, std::string name,
                                        std::vector<std::int64_t> params,
                                        std::vector<ObjectiveTerm> children) {
  ObjectiveTerm t;
  t.kind_ = kind;
  t.name_ = std::move(name);
  t.params_ = std::move(params);
  t.children_ = std::move(children);
  return t;
}

ObjectiveTerm ObjectiveTerm::lex(std::string name,
                                 std::vector<std::int64_t> caps,
                                 std::vector<ObjectiveTerm> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("lex needs at least two children");
  }
  if (caps.size() != children.size()) {
    throw std::invalid_argument("lex cap arity mismatch");
  }
  __int128 range = 1;
  for (const std::int64_t c : caps) {
    if (c < 0) throw std::invalid_argument("negative lex cap");
    range *= static_cast<__int128>(c) + 1;
    if (range > std::numeric_limits<std::int64_t>::max()) {
      throw std::invalid_argument("lex caps overflow the packed axis");
    }
  }
  return combinator(Kind::Lex, std::move(name), std::move(caps),
                    std::move(children));
}

ObjectiveTerm ObjectiveTerm::minmax(std::string name,
                                    std::vector<ObjectiveTerm> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("minmax needs at least two children");
  }
  return combinator(Kind::MinMax, std::move(name), {}, std::move(children));
}

ObjectiveTerm ObjectiveTerm::weighted(std::string name,
                                      std::vector<std::int64_t> weights,
                                      std::vector<ObjectiveTerm> children) {
  if (children.empty()) {
    throw std::invalid_argument("weighted needs at least one child");
  }
  if (weights.size() != children.size()) {
    throw std::invalid_argument("weighted arity mismatch");
  }
  for (const std::int64_t w : weights) {
    if (w < 1) throw std::invalid_argument("weights must be >= 1");
  }
  return combinator(Kind::Weighted, std::move(name), std::move(weights),
                    std::move(children));
}

ObjectiveTerm ObjectiveTerm::scenario_worst(std::string name,
                                            std::vector<ObjectiveTerm> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("scenario_worst needs at least two children");
  }
  return combinator(Kind::ScenarioWorst, std::move(name), {},
                    std::move(children));
}

ObjectiveTerm& ObjectiveTerm::with_floor(theory::LinearSumPropagator* propagator,
                                         theory::LinearSumPropagator::SumId sum) {
  if (kind_ != Kind::Linear || propagator == nullptr) {
    throw std::invalid_argument("floors attach to linear leaves only");
  }
  floors_.push_back(Floor{propagator, sum});
  return *this;
}

std::int64_t ObjectiveTerm::lower_bound() const {
  switch (kind_) {
    case Kind::Linear: {
      std::int64_t best = linear_->lower_bound(sum_);
      for (const Floor& f : floors_) {
        best = std::max(best, f.linear->lower_bound(f.sum));
      }
      return best;
    }
    case Kind::Difference:
      return difference_->lower_bound(node_);
    case Kind::Lex: {
      // synth::lex_pack folded in place (this runs on every propagation
      // round): clamp each child into [0, cap], pack big-endian.  The lex
      // factory makes caps and children equally long and the cap product
      // fit an int64.
      __int128 packed = 0;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        const std::int64_t cap = params_[i];
        packed = packed * (static_cast<__int128>(cap) + 1) +
                 std::clamp<std::int64_t>(children_[i].lower_bound(), 0, cap);
      }
      return static_cast<std::int64_t>(packed);
    }
    case Kind::MinMax:
    case Kind::ScenarioWorst: {
      std::int64_t best = 0;
      for (const ObjectiveTerm& c : children_) {
        best = std::max(best, c.lower_bound());
      }
      return best;
    }
    case Kind::Weighted: {
      __int128 total = 0;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        total += static_cast<__int128>(params_[i]) * children_[i].lower_bound();
      }
      if (total > std::numeric_limits<std::int64_t>::max()) {
        return std::numeric_limits<std::int64_t>::max();
      }
      return static_cast<std::int64_t>(total);
    }
  }
  return 0;
}

void ObjectiveTerm::explain(std::int64_t threshold,
                            std::vector<asp::Lit>& out) const {
  if (threshold <= 0) return;
  switch (kind_) {
    case Kind::Linear: {
      // Prefer the primary sum; fall back to the first floor that reaches
      // the threshold.  The proof binding declares the floors (an `F`
      // leaf), so the checker folds the same max and re-derives either.
      if (linear_->lower_bound(sum_) >= threshold) {
        linear_->explain_lower_bound(sum_, threshold, out);
        return;
      }
      for (const Floor& f : floors_) {
        if (f.linear->lower_bound(f.sum) >= threshold) {
          f.linear->explain_lower_bound(f.sum, threshold, out);
          return;
        }
      }
      throw std::logic_error("linear term explanation: threshold unreachable");
    }
    case Kind::Difference:
      difference_->explain_bound(node_, out);
      return;
    case Kind::MinMax:
    case Kind::ScenarioWorst: {
      // One child carrying the max suffices: the checker's re-derived child
      // bound folds through max monotonically.
      for (const ObjectiveTerm& c : children_) {
        if (c.lower_bound() >= threshold) {
          c.explain(threshold, out);
          return;
        }
      }
      throw std::logic_error("minmax explanation: threshold unreachable");
    }
    case Kind::Weighted: {
      // Explain children in full, the largest contribution w_i · lb_i last,
      // until the explained contributions reach the threshold; the child
      // that crosses it is explained only to ⌈remaining / w_i⌉.  Cutting
      // the largest contribution drops the most slack.  The checker
      // re-derives at least the explained child values (unexplained
      // children fold as >= 0).
      auto contribution = [this](std::size_t i) {
        return static_cast<__int128>(params_[i]) * children_[i].lower_bound();
      };
      std::size_t largest = 0;
      for (std::size_t i = 1; i < children_.size(); ++i) {
        if (contribution(i) > contribution(largest)) largest = i;
      }
      __int128 remaining = threshold;
      auto take = [&](std::size_t i) {  // true once the threshold is covered
        const std::int64_t lb = children_[i].lower_bound();
        if (lb <= 0) return false;
        const __int128 w = params_[i];
        if (w * lb >= remaining) {
          children_[i].explain(static_cast<std::int64_t>((remaining + w - 1) / w),
                               out);
          return true;
        }
        children_[i].explain(lb, out);
        remaining -= w * lb;
        return false;
      };
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i != largest && take(i)) return;
      }
      if (take(largest)) return;
      throw std::logic_error("weighted explanation: threshold unreachable");
    }
    case Kind::Lex: {
      // Explain each child at its clamped bound; packing the clamped child
      // values reproduces lower_bound() >= threshold, and any larger
      // re-derived child value only raises the packed value.
      for (std::size_t i = 0; i < children_.size(); ++i) {
        const std::int64_t clamped =
            std::min(children_[i].lower_bound(), params_[i]);
        children_[i].explain(clamped, out);
      }
      return;
    }
  }
}

bool ObjectiveTerm::push_bound(std::int64_t bound, asp::Lit activation,
                               bool mirror_floors) const {
  switch (kind_) {
    case Kind::Linear:
      linear_->add_bound(sum_, bound, activation);
      if (mirror_floors) {
        // Floors never exceed the leaf, so the same ceiling holds for them.
        for (const Floor& f : floors_) {
          f.linear->add_bound(f.sum, bound, activation);
        }
      }
      return true;
    case Kind::Difference:
      difference_->add_bound(node_, bound, activation);
      return true;
    case Kind::MinMax:
    case Kind::ScenarioWorst: {
      // max(children) <= B  <=>  every child <= B: complete fan-out.
      bool complete = true;
      for (const ObjectiveTerm& c : children_) {
        complete &= c.push_bound(bound, activation, mirror_floors);
      }
      return complete;
    }
    case Kind::Weighted: {
      // w_i·c_i <= Σ w_j·c_j <= B (children are >= 0), so c_i <= B/w_i is
      // sound — but the conjunction of the pushed bounds does not imply the
      // aggregate bound: a residual combinator bound is required.
      for (std::size_t i = 0; i < children_.size(); ++i) {
        children_[i].push_bound(bound / params_[i], activation, mirror_floors);
      }
      return false;
    }
    case Kind::Lex: {
      // Only the most significant child admits a sound prefix bound:
      // clamp(c_0)·stride_0 <= value <= B forces c_0 <= B/stride_0 whenever
      // that quotient is below cap_0.  Deeper children stay unconstrained
      // (their contribution can be compensated), so a residual bound is
      // always required.
      if (bound < 0) {
        children_[0].push_bound(-1, activation, mirror_floors);
        return false;
      }
      const std::int64_t head = bound / lex_head_stride(params_);
      if (head < params_[0]) {
        children_[0].push_bound(head, activation, mirror_floors);
      }
      return false;
    }
  }
  return false;
}

bool ObjectiveTerm::push_lower_bound(std::int64_t bound,
                                     asp::Lit activation) const {
  if (kind_ != Kind::Linear) return false;
  linear_->add_lower_bound(sum_, bound, activation);
  return true;
}

void ObjectiveTerm::serialize(std::string& out) const {
  auto token = [&out](const std::string& t) {
    if (!out.empty() && out.back() != ' ') out += ' ';
    out += t;
  };
  switch (kind_) {
    case Kind::Linear:
      token(floors_.empty() ? "L" : "F");
      token(std::to_string(sum_));
      if (!floors_.empty()) {
        token(std::to_string(floors_.size()));
        for (const Floor& f : floors_) token(std::to_string(f.sum));
      }
      return;
    case Kind::Difference:
      token("D");
      token(std::to_string(node_));
      return;
    case Kind::Lex:
      token("X");
      break;
    case Kind::MinMax:
      token("M");
      break;
    case Kind::Weighted:
      token("W");
      break;
    case Kind::ScenarioWorst:
      token("V");
      break;
  }
  token(std::to_string(children_.size()));
  for (const std::int64_t p : params_) token(std::to_string(p));
  for (const ObjectiveTerm& c : children_) c.serialize(out);
}

}  // namespace aspmt::dse
