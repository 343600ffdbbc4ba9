#include "calibrate.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "trace.hpp"

namespace dsebench {

namespace {

// Literals are 2 * var + sign; a literal is true when its variable's value
// equals !sign.
constexpr int kUnassigned = -1;

// Minimal CDCL: two watched literals, first-UIP learning, activity-ordered
// decisions, no restarts and no clause deletion.  Deterministic, so every
// unit does exactly the same work.  Clauses live in one flat array and
// reset() keeps every buffer's capacity, so after a thread's first unit
// the calibration allocates nothing and does not depend on the heap the
// program left behind.
class MiniCdcl {
 public:
  void reset(int vars) {
    const auto n = static_cast<std::size_t>(vars);
    lits_.clear();
    starts_.assign(1, 0);
    watches_.resize(2 * n);
    for (std::vector<int>& ws : watches_) ws.clear();
    value_.assign(n, kUnassigned);
    level_.assign(n, 0);
    reason_.assign(n, -1);
    activity_.assign(n, 0.0);
    seen_.assign(n, 0);
    trail_.clear();
    trail_lim_.clear();
    learnt_.clear();
    head_ = 0;
    increment_ = 1.0;
    conflicts_ = 0;
  }

  void add_clause(const int* lits, std::size_t size) { (void)attach(lits, size); }

  /// Returns true when the formula is satisfiable.
  bool solve() {
    for (;;) {
      const int conflict = propagate();
      if (conflict < 0) {
        const int var = pick();
        if (var < 0) return true;
        trail_lim_.push_back(trail_.size());
        assign(2 * var + 1, -1);
        continue;
      }
      ++conflicts_;
      if (trail_lim_.empty()) return false;
      learn(conflict);
    }
  }

  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }

 private:
  [[nodiscard]] int lit_value(int lit) const {
    const int v = value_[lit >> 1];
    return v == kUnassigned ? kUnassigned : v ^ (lit & 1);
  }

  void assign(int lit, int reason) {
    value_[lit >> 1] = (lit & 1) ^ 1;
    level_[lit >> 1] = static_cast<int>(trail_lim_.size());
    reason_[lit >> 1] = reason;
    trail_.push_back(lit);
  }

  int* clause(int id) { return lits_.data() + starts_[id]; }
  [[nodiscard]] std::size_t clause_size(int id) const { return starts_[id + 1] - starts_[id]; }

  int attach(const int* lits, std::size_t size) {
    const int id = static_cast<int>(starts_.size()) - 1;
    watches_[lits[0] ^ 1].push_back(id);
    watches_[lits[1] ^ 1].push_back(id);
    lits_.insert(lits_.end(), lits, lits + size);
    starts_.push_back(lits_.size());
    return id;
  }

  // Returns the conflicting clause, or -1.
  int propagate() {
    while (head_ < trail_.size()) {
      const int falsified = trail_[head_++] ^ 1;
      std::vector<int>& ws = watches_[falsified ^ 1];
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < ws.size()) {
        const int id = ws[i++];
        int* c = clause(id);
        if (c[0] == falsified) std::swap(c[0], c[1]);
        if (lit_value(c[0]) == 1) {
          ws[j++] = id;
          continue;
        }
        bool moved = false;
        const std::size_t size = clause_size(id);
        for (std::size_t k = 2; k < size; ++k) {
          if (lit_value(c[k]) != 0) {
            std::swap(c[1], c[k]);
            watches_[c[1] ^ 1].push_back(id);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[j++] = id;
        if (lit_value(c[0]) == 0) {
          while (i < ws.size()) ws[j++] = ws[i++];
          ws.resize(j);
          head_ = trail_.size();
          return id;
        }
        assign(c[0], id);
      }
      ws.resize(j);
    }
    return -1;
  }

  int pick() const {
    int best = -1;
    for (int v = 0; v < static_cast<int>(value_.size()); ++v) {
      if (value_[v] == kUnassigned && (best < 0 || activity_[v] > activity_[best])) best = v;
    }
    return best;
  }

  void bump(int var) {
    if ((activity_[var] += increment_) > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      increment_ *= 1e-100;
    }
  }

  void learn(int conflict) {
    const int current = static_cast<int>(trail_lim_.size());
    std::vector<int>& learnt = learnt_;
    learnt.assign(1, 0);
    int open = 0;
    int lit = -1;
    std::size_t index = trail_.size();
    do {
      const int* c = clause(conflict);
      const std::size_t size = clause_size(conflict);
      for (std::size_t k = lit < 0 ? 0 : 1; k < size; ++k) {
        const int var = c[k] >> 1;
        if (seen_[var] || level_[var] == 0) continue;
        seen_[var] = 1;
        bump(var);
        if (level_[var] >= current) {
          ++open;
        } else {
          learnt.push_back(c[k]);
        }
      }
      while (!seen_[trail_[--index] >> 1]) {
      }
      lit = trail_[index];
      conflict = reason_[lit >> 1];
      seen_[lit >> 1] = 0;
      --open;
    } while (open > 0);
    learnt[0] = lit ^ 1;

    int back = 0;
    std::size_t second = 1;
    for (std::size_t k = 1; k < learnt.size(); ++k) {
      seen_[learnt[k] >> 1] = 0;
      if (level_[learnt[k] >> 1] > back) {
        back = level_[learnt[k] >> 1];
        second = k;
      }
    }
    if (learnt.size() > 1) std::swap(learnt[1], learnt[second]);
    while (static_cast<int>(trail_lim_.size()) > back) {
      for (std::size_t k = trail_lim_.back(); k < trail_.size(); ++k) {
        value_[trail_[k] >> 1] = kUnassigned;
      }
      trail_.resize(trail_lim_.back());
      trail_lim_.pop_back();
    }
    head_ = trail_.size();
    increment_ *= 1.05;
    assign(learnt[0], learnt.size() == 1 ? -1 : attach(learnt.data(), learnt.size()));
  }

  std::vector<int> lits_;                  ///< every clause's literals, back to back
  std::vector<std::size_t> starts_;        ///< clause i is lits_[starts_[i], starts_[i + 1])
  std::vector<std::vector<int>> watches_;  ///< by the literal whose truth falsifies the watch
  std::vector<int> value_;
  std::vector<int> level_;
  std::vector<int> reason_;
  std::vector<double> activity_;
  std::vector<char> seen_;
  std::vector<int> trail_;
  std::vector<std::size_t> trail_lim_;
  std::vector<int> learnt_;
  std::size_t head_ = 0;
  double increment_ = 1.0;
  std::uint64_t conflicts_ = 0;
};

// Random 3-SAT near the satisfiability threshold, from a fixed LCG so the
// formulas never depend on the platform's <random>.
std::uint64_t solve_formula(MiniCdcl& solver, int vars, std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  solver.reset(vars);
  const int clauses = vars * 426 / 100;
  for (int i = 0; i < clauses; ++i) {
    int lits[3];
    std::size_t size = 0;
    while (size < 3) {
      const int var = static_cast<int>(next() % static_cast<std::uint32_t>(vars));
      if (std::none_of(lits, lits + size, [var](int l) { return (l >> 1) == var; })) {
        lits[size++] = 2 * var + static_cast<int>(next() & 1);
      }
    }
    solver.add_clause(lits, size);
  }
  (void)solver.solve();
  return solver.conflicts();
}

}  // namespace

CalibrationUnit calibration_unit() {
  thread_local MiniCdcl solver;
  CalibrationUnit unit;
  const double start = now_seconds();
  for (std::uint64_t seed = 7; seed <= 9; ++seed) {
    unit.conflicts += solve_formula(solver, 150, seed);
  }
  unit.seconds = now_seconds() - start;
  return unit;
}

}  // namespace dsebench
