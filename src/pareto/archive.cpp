#include "pareto/archive.hpp"

#include <algorithm>
#include <stdexcept>

#include "pareto/quadtree.hpp"

namespace aspmt::pareto {

void throw_arity_mismatch(std::size_t got, std::size_t expected) {
  throw std::invalid_argument("objective vector has " + std::to_string(got) +
                              " coordinates, the archive holds " +
                              std::to_string(expected));
}

bool LinearArchive::insert(const Vec& p) {
  if (dims_ == 0) dims_ = p.size();
  require_arity(p, dims_);
  for (const Vec& q : points_) {
    count_comparison();
    if (weakly_dominates(q, p)) return false;
  }
  std::erase_if(points_, [&](const Vec& q) {
    count_comparison();
    return weakly_dominates(p, q);
  });
  points_.push_back(p);
  return true;
}

std::size_t LinearArchive::erase_dominated_by(const Vec& p) {
  if (dims_ != 0) require_arity(p, dims_);
  return std::erase_if(points_, [&](const Vec& q) {
    count_comparison();
    return q != p && weakly_dominates(p, q);
  });
}

const Vec* LinearArchive::find_weak_dominator(const Vec& q) const {
  if (dims_ != 0) require_arity(q, dims_);
  for (const Vec& p : points_) {
    count_comparison();
    if (weakly_dominates(p, q)) return &p;
  }
  return nullptr;
}

std::vector<Vec> LinearArchive::points() const {
  std::vector<Vec> out = points_;
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Archive> make_archive(const std::string& kind,
                                      std::size_t dimensions) {
  if (kind == "linear") return std::make_unique<LinearArchive>(dimensions);
  if (kind == "quadtree") return std::make_unique<QuadTreeArchive>(dimensions);
  throw std::invalid_argument("unknown archive kind: " + kind);
}

}  // namespace aspmt::pareto
