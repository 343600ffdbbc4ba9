#include "cert/checker.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <utility>

namespace aspmt::cert {
namespace {

using Lits = std::vector<std::int64_t>;
/// A literal as the clause database stores it.  The range contract below
/// makes every literal of an accepted step fit.
using Lit = std::int32_t;

/// Largest variable a proof may mention: the solver's `Var` is 32-bit.
constexpr std::int64_t kMaxVar = std::numeric_limits<Lit>::max();
constexpr const char* kOutOfRange = "literal out of range (|lit| > 2^31-1)";
/// Slack above the bytes fed so far in the variable bound
/// (StreamChecker::Impl::max_var_).
constexpr std::int64_t kVarSlack = std::int64_t{1} << 20;
constexpr const char* kBeyondBound =
    "variable beyond the proof's size bound (bytes fed so far + 2^20)";

[[nodiscard]] constexpr bool in_range(std::int64_t l) noexcept {
  return l >= -kMaxVar && l <= kMaxVar;
}

/// Slot of a nonzero literal in per-literal arrays: 2(v-1) for v, one more
/// for -v.
[[nodiscard]] std::size_t lit_index(std::int64_t l) noexcept {
  return 2 * static_cast<std::size_t>(std::abs(l) - 1) + (l < 0 ? 1 : 0);
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Sort by variable, negative phase first — makes duplicates and
// complementary pairs adjacent.
struct LitLess {
  bool operator()(std::int64_t a, std::int64_t b) const noexcept {
    const std::int64_t va = std::abs(a);
    const std::int64_t vb = std::abs(b);
    if (va != vb) return va < vb;
    return a < b;
  }
};

void canonicalize(Lits& lits) {
  // Most steps arrive sorted by variable already: one pass confirms that a
  // clause is strictly increasing (sorted and duplicate-free), and only a
  // clause out of order is sorted.
  const auto out_of_order = std::adjacent_find(
      lits.begin(), lits.end(),
      [](std::int64_t a, std::int64_t b) { return !LitLess{}(a, b); });
  if (out_of_order == lits.end()) return;
  std::sort(lits.begin(), lits.end(), LitLess{});
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
}

[[nodiscard]] bool is_tautology(const Lits& lits) {
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i] == -lits[i + 1]) return true;
  }
  return false;
}

/// Whitespace tokenizer over one proof line.
class Line {
 public:
  Line(const char* begin, const char* end) : p_(begin), end_(end) {}

  bool word(std::string_view& out) {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t')) ++p_;
    if (p_ == end_) return false;
    const char* start = p_;
    while (p_ != end_ && *p_ != ' ' && *p_ != '\t') ++p_;
    out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    return true;
  }

  bool integer(std::int64_t& out) {
    std::string_view w;
    if (!word(w)) return false;
    const auto res = std::from_chars(w.data(), w.data() + w.size(), out);
    return res.ec == std::errc{} && res.ptr == w.data() + w.size();
  }

  /// Only whitespace is left.
  [[nodiscard]] bool at_end() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t')) ++p_;
    return p_ == end_;
  }

  /// An item count: a non-negative integer no larger than the rest of the
  /// line could hold, so sizing a container by it cannot exhaust memory.
  bool count(std::int64_t& out) {
    return integer(out) && out >= 0 && out <= end_ - p_;
  }

 private:
  const char* p_;
  const char* end_;
};

struct Edge {
  std::int64_t from = 0;
  std::int64_t to = 0;
  std::int64_t weight = 0;
  Lits guards;  // all must be true for the edge to apply
};

struct Rule {
  std::int64_t head = 0;
  std::int64_t body = 0;
  Lits pos_heads;  // head literals of the positive body atoms
};

/// One objective binding as declared by an O line: a leaf ('L' sum, 'F'
/// sum with floor sums, 'D' node) or a combinator ('X' lex with caps, 'M'
/// minmax, 'W' weighted with weights, 'V' scenario-worst) over such trees.
/// kind 0 marks an axis whose binding was never declared.
struct ObjTree {
  char kind = 0;
  std::int64_t id = 0;                // leaf theory id
  std::vector<std::int64_t> params;   // floor sums ('F'), caps ('X') or
                                      // weights ('W')
  std::vector<ObjTree> children;
};

/// A set of literals kept as per-literal epoch stamps: a literal is a member
/// iff its stamp equals the current epoch, so `clear` is O(1) and nothing is
/// allocated once the stamps cover every variable.
class LitSet {
 public:
  void reserve_var(std::size_t v) {
    if (stamp_.size() < 2 * v) stamp_.resize(2 * v, 0);
  }

  void clear() {
    if (++epoch_ == 0) {  // wrapped: an old stamp could equal the new epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// `l` must be nonzero, in range, and of a reserved variable.
  void insert(std::int64_t l) { stamp_[lit_index(l)] = epoch_; }

  [[nodiscard]] bool contains(std::int64_t l) const noexcept {
    if (l == 0 || !in_range(l)) return false;
    const std::size_t i = lit_index(l);
    return i < stamp_.size() && stamp_[i] == epoch_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;  // stamps start at 0: the set starts empty
};

/// A watchable clause: its literals live in the checker's arena, the two
/// watched ones first.
struct Clause {
  std::size_t begin = 0;  // offset into the arena
  std::uint32_t size = 0;
  std::uint32_t hash = 0;  // order-independent hash of the literal set
  std::uint32_t next = 0;  // next clause in the same deletion-index bucket
  bool active = true;      // false once a `D` step removed it
};

/// An entry of a literal's watch list.  `blocker` is another literal of the
/// clause: while it is true the clause is satisfied, and propagation skips
/// it without reading the clause.
struct Watch {
  std::uint32_t clause = 0;
  Lit blocker = 0;
};

constexpr std::uint32_t kNoClause = std::numeric_limits<std::uint32_t>::max();

/// murmur3's 32-bit finalizer.
[[nodiscard]] std::uint32_t mix(std::uint32_t x) noexcept {
  x ^= x >> 16;
  x *= 0x85ebca6bU;
  x ^= x >> 13;
  x *= 0xc2b2ae35U;
  return x ^ (x >> 16);
}

/// Hash of a literal set, independent of the literals' order.
[[nodiscard]] std::uint32_t set_hash(const Lits& lits) noexcept {
  std::uint32_t h = 0;
  for (const std::int64_t l : lits) h += mix(static_cast<std::uint32_t>(l));
  return h;
}

}  // namespace

/// The whole verification state: clause database with watched-literal unit
/// propagation plus the declared theory tables.
class StreamChecker::Impl {
 public:
  explicit Impl(CheckOptions options) : opts_(std::move(options)) {}

  void feed(std::string_view bytes);
  void admit(std::vector<std::int64_t> point) {
    opts_.feasible_points.push_back(std::move(point));
  }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  CheckResult finish();

 private:
  // ---- unit propagation ---------------------------------------------------

  /// Grow the per-variable and per-literal arrays to cover `l`'s variable,
  /// which must be within max_var_.
  void ensure_var(std::int64_t l) {
    const auto v = static_cast<std::size_t>(std::abs(l));
    if (assign_.size() > v) return;
    assign_.resize(v + 1, 0);
    var_flags_.resize(v + 1, 0);
    if (watch_.size() < 2 * v) watch_.resize(2 * v);
    clause_set_.reserve_var(v);
    unfounded_.reserve_var(v);
  }

  [[nodiscard]] int value(std::int64_t l) const noexcept {
    const int a = assign_[static_cast<std::size_t>(std::abs(l))];
    return l < 0 ? -a : a;
  }

  void assign(std::int64_t l) {
    assign_[static_cast<std::size_t>(std::abs(l))] =
        static_cast<std::int8_t>(l < 0 ? -1 : 1);
    trail_.push_back(static_cast<Lit>(l));
  }

  /// False iff `l` is already false.
  bool enqueue(std::int64_t l) {
    const int v = value(l);
    if (v == 1) return true;
    if (v == -1) return false;
    assign(l);
    return true;
  }

  bool propagate() {
    while (qhead_ < trail_.size()) {
      const Lit false_lit = -trail_[qhead_++];
      std::vector<Watch>& wl = watch_[lit_index(false_lit)];
      std::size_t out = 0;
      for (std::size_t i = 0; i < wl.size(); ++i) {
        const Watch w = wl[i];
        if (value(w.blocker) == 1) {
          wl[out++] = w;
          continue;
        }
        Clause& c = clauses_[w.clause];
        if (!c.active) continue;  // deleted: lazily drop from the list
        Lit* ls = arena_.data() + c.begin;
        if (ls[0] == false_lit) std::swap(ls[0], ls[1]);
        const Watch kept{w.clause, ls[0]};
        if (ls[0] != w.blocker && value(ls[0]) == 1) {
          wl[out++] = kept;
          continue;
        }
        bool moved = false;
        for (std::uint32_t k = 2; k < c.size; ++k) {
          if (value(ls[k]) != -1) {
            std::swap(ls[1], ls[k]);
            watch_[lit_index(ls[1])].push_back(kept);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        wl[out++] = kept;  // clause stays unit/conflicting on ls[0]
        if (value(ls[0]) == -1) {
          for (++i; i < wl.size(); ++i) wl[out++] = wl[i];
          wl.resize(out);
          return false;
        }
        assign(ls[0]);
      }
      wl.resize(out);
    }
    return true;
  }

  /// Undo every assignment above trail position `save`, crediting them to
  /// the propagation count.
  void undo_to(std::size_t save) {
    result_.propagations += trail_.size() - save;
    while (trail_.size() > save) {
      assign_[static_cast<std::size_t>(std::abs(trail_.back()))] = 0;
      trail_.pop_back();
    }
    qhead_ = std::min(qhead_, save);
  }

  /// RUP: asserting the negation of every clause literal propagates to a
  /// conflict (or the clause is already satisfied/tautological at root).
  [[nodiscard]] bool rup(const Lits& clause) {
    if (root_conflict_) return true;
    const std::size_t save = trail_.size();
    bool conflict = false;
    bool satisfied = false;
    for (const std::int64_t l : clause) {
      const int v = value(l);
      if (v == 1) {  // root unit (or a complementary clause literal)
        satisfied = true;
        break;
      }
      if (v == -1) continue;
      assign(-l);
    }
    if (!satisfied) conflict = !propagate();
    undo_to(save);
    return conflict || satisfied;
  }

  /// Whether clause `id` is unit or false under the current assignment;
  /// `unit` receives its open literal (0 when it is false).
  [[nodiscard]] bool unit_or_false(std::uint32_t id, Lit& unit) const {
    const Clause& c = clauses_[id];
    const Lit* ls = arena_.data() + c.begin;
    unit = 0;
    for (std::uint32_t k = 0; k < c.size; ++k) {
      const int v = value(ls[k]);
      if (v == 1) return false;
      if (v == 0) {
        if (unit != 0) return false;
        unit = ls[k];
      }
    }
    return true;
  }

  /// An active clause other than `dead` that is unit on `unit` (or false,
  /// for unit 0) right now, searched on the watch lists of `dead`'s
  /// literals.  A D step without an id trailer names its clause by literal
  /// set, so the deletion index can retire a different copy of a clause
  /// than the writer did: the copy the writer kept then watches the same
  /// open literals.
  [[nodiscard]] bool live_copy(std::uint32_t dead, Lit unit) const {
    const Clause& d = clauses_[dead];
    for (std::uint32_t k = 0; k < d.size; ++k) {
      for (const Watch& w : watch_[lit_index(arena_[d.begin + k])]) {
        Lit u = 0;
        if (w.clause != dead && clauses_[w.clause].active &&
            unit_or_false(w.clause, u) && u == unit) {
          return true;
        }
      }
    }
    return false;
  }

  /// The hint walk: assert the negation of `clause`, then visit the hinted
  /// clauses in order.  Each must be active and unit (its open literal is
  /// assigned) or false (the conflict: the clause is verified); a hint
  /// naming a step that stored no clause is passed over.  Anything else —
  /// an unknown or later id, a satisfied or non-unit clause, a deleted
  /// clause with no live copy, hints running out first — returns false, and
  /// the caller falls back to rup().  A walk that succeeds is a
  /// unit-propagation derivation over active database clauses, so it
  /// accepts nothing rup() would reject.
  [[nodiscard]] bool walk_hints(const Lits& clause) {
    if (root_conflict_) return true;
    const std::size_t save = trail_.size();
    bool closed = false;
    for (const std::int64_t l : clause) {
      const int v = value(l);
      if (v == 1) {  // satisfied at root, as in rup()
        closed = true;
        break;
      }
      if (v == 0) assign(-l);
    }
    for (std::size_t i = 0; i < hints_.size() && !closed; ++i) {
      const std::int64_t h = hints_[i];
      if (h < 1 || h > static_cast<std::int64_t>(step_clause_.size())) break;
      const std::uint32_t id = step_clause_[static_cast<std::size_t>(h - 1)];
      // The step stored no clause: it was a root fact (or a tautology) when
      // installed, and the root assignment already holds what it implies.
      if (id == kNoClause) continue;
      Lit unit = 0;
      if (!unit_or_false(id, unit)) break;
      if (!clauses_[id].active && !live_copy(id, unit)) break;
      if (unit == 0) {
        closed = true;
      } else {
        assign(unit);
      }
    }
    undo_to(save);
    return closed;
  }

  /// The clause set is contradictory once all `assumptions` are asserted.
  [[nodiscard]] bool refutes_assumptions(const Lits& assumptions) {
    if (root_conflict_) return true;
    const std::size_t save = trail_.size();
    bool conflict = false;
    for (const std::int64_t a : assumptions) {
      if (!enqueue(a)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) conflict = !propagate();
    undo_to(save);
    return conflict;
  }

  /// Add a verified/axiomatic clause to the database and restore the root
  /// fixpoint, recording it under the next clause id.  `lits` must be
  /// canonical.  A clause that is unit or false under the root assignment
  /// acts once, as a root fact, and is not stored (its id names no clause).
  void install(const Lits& lits) {
    step_clause_.push_back(kNoClause);
    if (root_conflict_ || is_tautology(lits)) return;
    if (lits.empty()) {
      root_conflict_ = true;
      return;
    }
    const std::size_t begin = arena_.size();
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    Lit* ls = arena_.data() + begin;
    // Pick two non-false watches; fewer mean the clause is unit or false
    // under the root assignment right away.
    std::size_t nonfalse = 0;
    for (std::size_t i = 0; i < lits.size() && nonfalse < 2; ++i) {
      if (value(ls[i]) != -1) std::swap(ls[nonfalse++], ls[i]);
    }
    if (nonfalse < 2) {
      const Lit unit = ls[0];
      arena_.resize(begin);
      if (nonfalse == 0 || !enqueue(unit) || !propagate()) root_conflict_ = true;
      return;
    }
    const auto id = static_cast<std::uint32_t>(clauses_.size());
    Clause c;
    c.begin = begin;
    c.size = static_cast<std::uint32_t>(lits.size());
    c.hash = set_hash(lits);
    clauses_.push_back(c);
    step_clause_.back() = id;
    watch_[lit_index(ls[0])].push_back({id, ls[1]});
    watch_[lit_index(ls[1])].push_back({id, ls[0]});
    index_clause(id);
  }

  // ---- deletion index -----------------------------------------------------
  // The active clauses, chained by set hash.  A `D` step finds its clause by
  // comparing against the arena, so no clause is stored twice.

  void link(std::uint32_t id) {
    Clause& c = clauses_[id];
    std::uint32_t& head = buckets_[c.hash & (buckets_.size() - 1)];
    c.next = head;
    head = id;
  }

  void index_clause(std::uint32_t id) {
    if (++indexed_ <= buckets_.size()) {
      link(id);
      return;
    }
    buckets_.assign(std::max<std::size_t>(1024, 2 * buckets_.size()), kNoClause);
    for (std::uint32_t i = 0; i < clauses_.size(); ++i) {
      if (clauses_[i].active) link(i);
    }
  }

  /// Deactivate one active clause whose literal set is `lits` (canonical).
  /// Returns false when there is none.  A deletion without an id trailer
  /// may name a root-simplified clause that has no exact match here;
  /// keeping such a clause only strengthens propagation over valid clauses,
  /// which stays sound.
  bool remove(const Lits& lits) {
    if (buckets_.empty()) return false;
    const std::uint32_t h = set_hash(lits);
    bool marked = false;
    for (std::uint32_t* at = &buckets_[h & (buckets_.size() - 1)];
         *at != kNoClause; at = &clauses_[*at].next) {
      Clause& c = clauses_[*at];
      if (c.hash != h || c.size != lits.size()) continue;
      if (!marked) {
        mark_clause(lits);
        marked = true;
      }
      const Lit* ls = arena_.data() + c.begin;
      // Both sides are duplicate-free and equally long: subset means equal.
      if (std::all_of(ls, ls + c.size,
                      [&](Lit l) { return clause_set_.contains(l); })) {
        deactivate(at);
        return true;
      }
    }
    return false;
  }

  /// Deactivate the clause introduced by step `id` (a deletion's trailer).
  /// Returns false when `id` names no clause-introducing step or a clause
  /// already retired.  A step that stored no clause (a root fact or a
  /// tautology) has nothing to retire and counts as matched.
  bool retire(std::int64_t id) {
    if (id < 1 || id > static_cast<std::int64_t>(step_clause_.size())) {
      return false;
    }
    const std::uint32_t cl = step_clause_[static_cast<std::size_t>(id - 1)];
    if (cl == kNoClause) return true;
    if (!clauses_[cl].active) return false;
    std::uint32_t* at = &buckets_[clauses_[cl].hash & (buckets_.size() - 1)];
    while (*at != cl) at = &clauses_[*at].next;  // active clauses are indexed
    deactivate(at);
    return true;
  }

  /// Retire the clause the deletion-index link `at` points to.
  void deactivate(std::uint32_t* at) {
    Clause& c = clauses_[*at];
    c.active = false;
    *at = c.next;
    --indexed_;
  }

  // ---- theory re-derivation ----------------------------------------------

  /// Make clause_set_ hold exactly `clause`.
  void mark_clause(const Lits& clause) {
    clause_set_.clear();
    for (const std::int64_t l : clause) clause_set_.insert(l);
  }

  /// Longest origin distances, into dist_, over the edges whose guards the
  /// marked clause all negates (nodes are implicitly >= 0).  Bellman-Ford;
  /// returns whether a positive cycle remains (distances divergent, any
  /// bound claim holds vacuously).
  [[nodiscard]] bool longest_paths() {
    dist_.assign(static_cast<std::size_t>(num_nodes_), 0);
    live_.clear();
    for (const Edge& e : edges_) {
      const bool on =
          std::all_of(e.guards.begin(), e.guards.end(),
                      [&](std::int64_t g) { return clause_set_.contains(-g); });
      if (on) live_.push_back(&e);
    }
    bool changed = true;
    for (std::int64_t round = 0; round <= num_nodes_ && changed; ++round) {
      changed = false;
      for (const Edge* e : live_) {
        const std::int64_t nd = dist_[static_cast<std::size_t>(e->from)] + e->weight;
        if (nd > dist_[static_cast<std::size_t>(e->to)]) {
          dist_[static_cast<std::size_t>(e->to)] = nd;
          changed = true;
        }
      }
    }
    return changed;  // still relaxing after |V| rounds
  }

  /// Weight of the guards the marked clause negates.
  [[nodiscard]] std::int64_t clause_weight_in_sum(std::size_t sum) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) {
      if (clause_set_.contains(-guard)) total += weight;
    }
    return total;
  }

  /// Weight forfeited when every guard occurring *positively* in the marked
  /// clause is assumed false (the LL lemma shape: at least one must hold).
  [[nodiscard]] std::int64_t clause_weight_forfeited(std::size_t sum) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) {
      if (clause_set_.contains(guard)) total += weight;
    }
    return total;
  }

  [[nodiscard]] std::int64_t sum_total(std::size_t sum) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) total += weight;
    return total;
  }

  [[nodiscard]] bool some_feasible_leq(std::span<const std::int64_t> p) const {
    const auto& sources =
        opts_.trust_feasible_steps ? feasible_ : opts_.feasible_points;
    for (const auto& q : sources) {
      if (q.size() != p.size()) continue;
      bool leq = true;
      for (std::size_t i = 0; i < q.size() && leq; ++i) leq = q[i] <= p[i];
      if (leq) return true;
    }
    return false;
  }

  /// Re-derive a lower bound of an objective tree under the assumption that
  /// every literal of the (negated) marked clause holds: leaf bounds come from the
  /// declared sum/edge tables exactly as in the LS/DB lemmas, combinators
  /// fold them monotonically (max for minmax/worst, weighted sum, clamped
  /// big-endian packing for lex — the same arithmetic the solver binds).  A
  /// positive cycle in a difference leaf makes its bound vacuously infinite.
  /// Returns an empty string and writes `out` on success.
  [[nodiscard]] std::string tree_lower_bound(const ObjTree& t, std::int64_t& out) {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    switch (t.kind) {
      case 'L': {
        if (t.id < 0 || static_cast<std::size_t>(t.id) >= sums_.size()) {
          return "unknown sum";
        }
        out = clause_weight_in_sum(static_cast<std::size_t>(t.id));
        return {};
      }
      case 'F': {
        // parse_obj_tree checked the sums and every floor against the
        // primary sum, so each floor is a lower bound of the leaf too.
        out = clause_weight_in_sum(static_cast<std::size_t>(t.id));
        for (const std::int64_t f : t.params) {
          out = std::max(out, clause_weight_in_sum(static_cast<std::size_t>(f)));
        }
        return {};
      }
      case 'D': {
        if (t.id < 0 || t.id >= num_nodes_) return "unknown node";
        out = longest_paths() ? kMax : dist_[static_cast<std::size_t>(t.id)];
        return {};
      }
      case 'M':
      case 'V': {
        std::int64_t best = std::numeric_limits<std::int64_t>::min();
        for (const ObjTree& c : t.children) {
          std::int64_t v = 0;
          const std::string why = tree_lower_bound(c, v);
          if (!why.empty()) return why;
          best = std::max(best, v);
        }
        out = best;
        return {};
      }
      case 'W': {
        __int128 acc = 0;
        for (std::size_t i = 0; i < t.children.size(); ++i) {
          std::int64_t v = 0;
          const std::string why = tree_lower_bound(t.children[i], v);
          if (!why.empty()) return why;
          acc += static_cast<__int128>(t.params[i]) * v;
        }
        out = acc > kMax ? kMax : static_cast<std::int64_t>(acc);
        return {};
      }
      case 'X': {
        // Big-endian packing with per-child clamping to [0, cap]; strides
        // were validated overflow-free at declaration time.
        __int128 acc = 0;
        for (std::size_t i = 0; i < t.children.size(); ++i) {
          std::int64_t v = 0;
          const std::string why = tree_lower_bound(t.children[i], v);
          if (!why.empty()) return why;
          const std::int64_t cap = t.params[i];
          acc = acc * (static_cast<__int128>(cap) + 1) +
                std::clamp<std::int64_t>(v, 0, cap);
        }
        out = acc > kMax ? kMax : static_cast<std::int64_t>(acc);
        return {};
      }
      default:
        return "objective binding was never declared";
    }
  }

  /// Verify one theory lemma against the declared tables.  Returns an empty
  /// string on success, the reason otherwise.
  /// The negations of the clause's literals are what it claims cannot all
  /// hold together; clause_set_ serves both views (g negated iff -g marked).
  [[nodiscard]] std::string verify_lemma(std::string_view tag,
                                         const std::vector<std::int64_t>& payload,
                                         const Lits& clause) {
    mark_clause(clause);
    if (tag == "DC") {
      if (!longest_paths()) return "no positive cycle under the clause guards";
      return {};
    }
    if (tag == "DB") {
      if (payload.size() != 3) return "DB payload must be node/bound/act";
      const std::int64_t node = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (node < 0 || node >= num_nodes_) return "unknown node";
      if (node_bounds_.count({node, bound, act}) == 0) {
        return "node bound was never declared";
      }
      if (act != 0 && !clause_set_.contains(-act)) {
        return "clause misses the bound's activation negation";
      }
      if (!longest_paths() && dist_[static_cast<std::size_t>(node)] <= bound) {
        return "guarded longest path does not exceed the bound";
      }
      return {};
    }
    if (tag == "LS") {
      if (payload.size() != 3) return "LS payload must be sum/bound/act";
      const std::int64_t sum = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (sum < 0 || static_cast<std::size_t>(sum) >= sums_.size()) {
        return "unknown sum";
      }
      if (sum_bounds_.count({sum, bound, act}) == 0) {
        return "sum bound was never declared";
      }
      if (act != 0 && !clause_set_.contains(-act)) {
        return "clause misses the bound's activation negation";
      }
      if (clause_weight_in_sum(static_cast<std::size_t>(sum)) <= bound) {
        return "negated guards do not exceed the bound";
      }
      return {};
    }
    if (tag == "LL") {
      if (payload.size() != 3) return "LL payload must be sum/bound/act";
      const std::int64_t sum = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (sum < 0 || static_cast<std::size_t>(sum) >= sums_.size()) {
        return "unknown sum";
      }
      if (sum_lower_bounds_.count({sum, bound, act}) == 0) {
        return "sum floor was never declared";
      }
      if (act != 0 && !clause_set_.contains(-act)) {
        return "clause misses the floor's activation negation";
      }
      // With every positive clause guard false the sum tops out at
      // total - forfeited; the lemma holds iff that misses the floor.
      const std::size_t s = static_cast<std::size_t>(sum);
      if (sum_total(s) - clause_weight_forfeited(s) >= bound) {
        return "remaining weight still reaches the floor";
      }
      return {};
    }
    if (tag == "UF") {
      if (payload.empty()) return "UF payload must list the unfounded set";
      const bool negated_member =
          std::any_of(payload.begin(), payload.end(),
                      [&](std::int64_t u) { return clause_set_.contains(-u); });
      if (!negated_member) return "clause negates no unfounded atom";
      // An atom beyond the per-variable arrays is no declared rule head, so
      // leaving it out of the set changes no lookup below.
      unfounded_.clear();
      for (const std::int64_t u : payload) {
        if (u != 0 && in_range(u) &&
            static_cast<std::size_t>(std::abs(u)) < assign_.size()) {
          unfounded_.insert(u);
        }
      }
      for (const Rule& r : rules_) {
        if (!unfounded_.contains(r.head)) continue;
        const bool external =
            std::none_of(r.pos_heads.begin(), r.pos_heads.end(),
                         [&](std::int64_t h) { return unfounded_.contains(h); });
        if (external && !clause_set_.contains(r.body)) {
          return "clause misses an external support body";
        }
      }
      return {};
    }
    if (tag == "DOM") {
      if (payload.empty() ||
          payload[0] != static_cast<std::int64_t>(payload.size()) - 1) {
        return "DOM payload must be k followed by k thresholds";
      }
      const std::span<const std::int64_t> point(payload.data() + 1,
                                                payload.size() - 1);
      if (!some_feasible_leq(point)) {
        return "no certified feasible point at or below the thresholds";
      }
      for (std::size_t i = 0; i < point.size(); ++i) {
        if (point[i] <= 0) continue;  // objectives are >= 0 by construction
        if (i >= objectives_.size() || objectives_[i].kind == 0) {
          return "objective binding was never declared";
        }
        std::int64_t lb = 0;
        const std::string why = tree_lower_bound(objectives_[i], lb);
        if (!why.empty()) return why;
        if (lb < point[i]) {
          return "negated guards do not reach the dominance threshold";
        }
      }
      return {};
    }
    if (tag == "CB") {
      if (payload.size() != 3) return "CB payload must be objective/bound/act";
      const std::int64_t obj = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (obj < 0 || static_cast<std::size_t>(obj) >= objectives_.size() ||
          objectives_[static_cast<std::size_t>(obj)].kind == 0) {
        return "objective binding was never declared";
      }
      if (comb_bounds_.count({obj, bound, act}) == 0) {
        return "combinator bound was never declared";
      }
      if (act != 0 && !clause_set_.contains(-act)) {
        return "clause misses the bound's activation negation";
      }
      std::int64_t lb = 0;
      const std::string why =
          tree_lower_bound(objectives_[static_cast<std::size_t>(obj)], lb);
      if (!why.empty()) return why;
      if (lb <= bound) {
        return "negated guards do not exceed the combinator bound";
      }
      return {};
    }
    return "unknown theory tag";
  }

  // ---- step handlers ------------------------------------------------------

  /// Read literals up to the terminating 0.  Returns nullptr on success,
  /// otherwise why the step is malformed (`unterminated` when the 0 is
  /// missing).  Every literal read is range-checked and covered by the
  /// per-variable arrays.
  [[nodiscard]] const char* read_lits(Line& line, Lits& out,
                                      const char* unterminated) {
    out.clear();
    std::int64_t v = 0;
    while (line.integer(v)) {
      if (v == 0) return nullptr;
      if (!in_range(v)) return kOutOfRange;
      if (std::abs(v) > max_var_) return kBeyondBound;
      ensure_var(v);
      out.push_back(v);
    }
    return unterminated;
  }

  /// Read a learnt step's optional hint list into hints_: the ids after the
  /// clause's terminating 0, up to a second 0.  Returns nullptr on success
  /// (no tokens at all means no hints), otherwise why the list is malformed.
  /// Ids are not checked here: an unusable one only sends the step to RUP.
  [[nodiscard]] const char* read_hints(Line& line) {
    hints_.clear();
    std::int64_t h = 0;
    while (!line.at_end()) {
      if (!line.integer(h)) return "malformed hint";
      if (h == 0) return nullptr;
      hints_.push_back(h);
    }
    return hints_.empty() ? nullptr : "unterminated hint list";
  }

  /// Read the literal (or variable) of a declaration, under the same range
  /// contract as read_lits.
  [[nodiscard]] bool read_lit(Line& line, std::int64_t& out) {
    if (!line.integer(out) || !in_range(out) || std::abs(out) > max_var_) {
      return false;
    }
    ensure_var(out);
    return true;
  }

  /// Whether `id` names a declared sum.
  [[nodiscard]] bool known_sum(std::int64_t id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < sums_.size();
  }

  /// A floor sum may only bound its leaf from below.  Each of its literals
  /// must carry at most the weight the primary sum gives the same literal,
  /// or be a declared floor pair of this floor sum that the primary sum
  /// does not mention.  Returns an empty string when that holds.
  [[nodiscard]] std::string check_floor(std::int64_t primary,
                                        std::int64_t floor) const {
    std::map<std::int64_t, __int128> room;  // literal -> primary weight
    for (const auto& [g, w] : sums_[static_cast<std::size_t>(primary)]) {
      room[g] += w;
    }
    std::map<std::int64_t, __int128> need;  // literal -> floor weight
    for (const auto& [g, w] : sums_[static_cast<std::size_t>(floor)]) {
      need[g] += w;
    }
    for (const auto& [g, w] : need) {
      const auto it = room.find(g);
      if (floor_pair_keys_.count({floor, g}) != 0) {
        if (it != room.end()) return "floor pair literal is also a primary term";
      } else if (it == room.end() || it->second < w) {
        return "floor term is neither a primary term of at least its weight "
               "nor a declared floor pair";
      }
    }
    return {};
  }

  /// Parse one objective-binding term from an O line.  Grammar:
  ///   term := L <sum> | F <sum> <k> <floor>{k} | D <node>
  ///         | X <k> <cap>{k} <term>{k} | M <k> <term>{k}
  ///         | W <k> <weight>{k} <term>{k} | V <k> <term>{k}
  /// An F leaf's sums must be declared, and each floor must pass
  /// check_floor against the primary sum.
  /// Structural limits mirror the spec validator (depth <= 8, <= 64 nodes);
  /// lex cap products are checked overflow-free so packing arithmetic in
  /// tree_lower_bound cannot wrap.  Returns an empty string on success.
  [[nodiscard]] std::string parse_obj_tree(Line& line, ObjTree& out, int depth,
                                           std::size_t& nodes) {
    if (depth > 8) return "tree too deep";
    if (++nodes > 64) return "tree too large";
    std::string_view what;
    if (!line.word(what)) return "missing term";
    if (what == "L" || what == "D") {
      std::int64_t id = 0;
      if (!line.integer(id) || id < 0) return "malformed leaf";
      out.kind = what[0];
      out.id = id;
      return {};
    }
    if (what == "F") {
      std::int64_t k = 0;
      if (!line.integer(out.id) || !known_sum(out.id)) return "unknown sum";
      if (!line.integer(k) || k < 1 || k > 64) return "malformed floor count";
      out.kind = 'F';
      out.params.resize(static_cast<std::size_t>(k));
      for (auto& f : out.params) {
        if (!line.integer(f) || !known_sum(f)) return "unknown floor sum";
        std::string why = check_floor(out.id, f);
        if (!why.empty()) return why;
      }
      return {};
    }
    if (what != "X" && what != "M" && what != "W" && what != "V") {
      return "unknown term kind";
    }
    out.kind = what[0];
    std::int64_t k = 0;
    if (!line.integer(k) || k < 1 || k > 64) return "malformed arity";
    if (out.kind != 'W' && k < 2) return "combinator needs two children";
    if (out.kind == 'X' || out.kind == 'W') {
      out.params.resize(static_cast<std::size_t>(k));
      __int128 radix = 1;
      for (auto& p : out.params) {
        if (!line.integer(p)) return "malformed parameters";
        if (out.kind == 'X') {
          if (p < 0) return "negative lex cap";
          radix *= static_cast<__int128>(p) + 1;
          if (radix > std::numeric_limits<std::int64_t>::max()) {
            return "lex packing overflows";
          }
        } else if (p < 1) {
          return "weight must be positive";
        }
      }
    }
    out.children.resize(static_cast<std::size_t>(k));
    for (auto& c : out.children) {
      const std::string why = parse_obj_tree(line, c, depth + 1, nodes);
      if (!why.empty()) return why;
    }
    return {};
  }

  /// Flags of a literal's variable; read_lits/read_lit covered it.
  [[nodiscard]] std::uint8_t& flags(std::int64_t lit_or_var) {
    return var_flags_[static_cast<std::size_t>(std::abs(lit_or_var))];
  }

  /// Record that `lit_or_var`'s variable occurs in an axiom or declaration.
  /// False iff the variable is a replay guard — axioms must never mention
  /// guard variables or the guard-purity soundness argument collapses.
  [[nodiscard]] bool note_axiom_var(std::int64_t lit_or_var) {
    if (lit_or_var == 0) return true;
    std::uint8_t& f = flags(lit_or_var);
    if ((f & kGuardVar) != 0) return false;
    f |= kAxiomVar;
    return true;
  }

  [[nodiscard]] bool note_axiom_lits(const Lits& lits) {
    for (const std::int64_t l : lits) {
      if (!note_axiom_var(l)) return false;
    }
    return true;
  }

  /// Like note_axiom_var, but additionally marks the variable *structural*:
  /// it occurs in an input clause, sum term, edge guard, or program rule, so
  /// it can never serve as a pure shard-box activation.
  [[nodiscard]] bool note_structural_var(std::int64_t lit_or_var) {
    if (!note_axiom_var(lit_or_var)) return false;
    if (lit_or_var != 0) flags(lit_or_var) |= kStructuralVar;
    return true;
  }

  [[nodiscard]] bool note_structural_lits(const Lits& lits) {
    for (const std::int64_t l : lits) {
      if (!note_structural_var(l)) return false;
    }
    return true;
  }

  /// Record a bound declaration's activation for shard-box extraction.
  /// kind: 0 = sum ceiling (SB), 1 = sum floor (SL), 2 = node bound (NB),
  /// 3 = combinator bound (OB — id is an objective index, not a sum id).
  void note_bound_act(std::int64_t kind, std::int64_t id, std::int64_t bound,
                      std::int64_t act) {
    if (act <= 0) {
      // Unconditional (or negative-literal) bounds block the cross-shard
      // model-extension argument; merged certification refuses the stream.
      result_.unsafe_bounds = true;
      return;
    }
    act_bounds_[act].push_back({kind, id, bound});
  }

  /// A verified Unsat conclusion: when its assumptions are all pure box
  /// activations on the shard objective's sum, record the proven interval.
  void maybe_record_shard_box(const Lits& assumptions) {
    const auto obj = static_cast<std::size_t>(opts_.shard_objective);
    // The shard objective must be a *linear leaf*, floored or not (its
    // primary sum is the banded one): combinator axes have no single sum
    // whose SB/SL activations could carve a sound interval.
    if (obj >= objectives_.size() ||
        (objectives_[obj].kind != 'L' && objectives_[obj].kind != 'F')) {
      return;
    }
    const std::int64_t shard_sum = objectives_[obj].id;
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    for (const std::int64_t a : assumptions) {
      if (a <= 0) return;                       // negative phase: not a box act
      if ((flags(a) & kStructuralVar) != 0) return;  // occurs in the system
      if ((flags(a) & kGuardVar) != 0) return;       // replay guard
      const auto it = act_bounds_.find(a);
      if (it == act_bounds_.end()) return;      // activates nothing known
      for (const auto& [kind, id, bound] : it->second) {
        // Only plain sum ceilings/floors on the shard sum qualify; node
        // bounds (kind 2) and combinator bounds (kind 3, id = objective
        // index) disqualify the conclusion as a box.
        if (kind != 0 && kind != 1) return;
        if (id != shard_sum) return;
        if (kind == 0) {
          hi = std::min(hi, bound);
        } else {
          lo = std::max(lo, bound);
        }
      }
    }
    result_.shard_boxes.push_back({lo, hi});
  }

  /// Record the first failure at the current line; returns false.
  bool fail(std::string_view what) {
    failed_ = true;
    result_.ok = false;
    result_.error = "line " + std::to_string(line_no_) + ": " + std::string(what);
    return false;
  }

  /// Check one step (a line without its newline).  False once it fails.
  bool step(const char* begin, const char* end);

  CheckOptions opts_;
  CheckResult result_;
  std::size_t line_no_ = 0;
  bool saw_header_ = false;
  bool failed_ = false;
  std::size_t fed_ = 0;  // bytes fed so far
  std::string carry_;    // the unterminated last line of the bytes fed
  Lits lits_;            // the literals of the step being checked

  std::vector<std::int8_t> assign_;  // var -> -1/0/+1
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::vector<std::vector<Watch>> watch_;  // by lit_index
  std::vector<Lit> arena_;                 // literals of every stored clause
  std::vector<Clause> clauses_;
  /// Clause id (1-based step ordinal) - 1 -> index into clauses_, or
  /// kNoClause when the step stored no clause.
  std::vector<std::uint32_t> step_clause_;
  std::vector<std::uint32_t> buckets_;  // deletion index: chain heads
  std::size_t indexed_ = 0;             // active clauses in the index
  bool root_conflict_ = false;

  // Per-step buffers, reused so that checking a step allocates nothing.
  LitSet clause_set_;  // literals of the step being checked
  LitSet unfounded_;   // a UF lemma's unfounded atoms
  std::vector<std::int64_t> dist_;
  std::vector<const Edge*> live_;
  std::vector<std::int64_t> payload_;
  std::vector<std::int64_t> hints_;  // of the learnt step being checked

  std::int64_t max_var_ = 0;  // largest variable the proof may mention
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> sums_;
  std::set<std::pair<std::int64_t, std::int64_t>> floor_pair_keys_;  // sum, lit
  std::set<std::int64_t> floor_edge_keys_;
  std::set<std::array<std::int64_t, 3>> sum_bounds_;
  std::set<std::array<std::int64_t, 3>> sum_lower_bounds_;
  std::int64_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::set<std::array<std::int64_t, 3>> node_bounds_;
  std::vector<ObjTree> objectives_;  // one binding tree per Pareto axis
  std::set<std::array<std::int64_t, 3>> comb_bounds_;
  std::vector<Rule> rules_;
  std::vector<std::vector<std::int64_t>> feasible_;

  // Per-variable flags.  Guard purity for `G` replay axioms: variables seen
  // in any axiom/declaration vs. variables consumed as replay guards.
  // Shard boxes: variables with structural occurrences.
  enum : std::uint8_t { kAxiomVar = 1, kGuardVar = 2, kStructuralVar = 4 };
  std::vector<std::uint8_t> var_flags_;
  // The bound declarations each activation literal switches on.
  std::map<std::int64_t, std::vector<std::array<std::int64_t, 3>>> act_bounds_;
};

void StreamChecker::Impl::feed(std::string_view bytes) {
  if (failed_ || bytes.empty()) return;
  fed_ += bytes.size();
  max_var_ = static_cast<std::int64_t>(std::min<std::size_t>(
                 fed_, static_cast<std::size_t>(kMaxVar - kVarSlack))) +
             kVarSlack;
  const char* cursor = bytes.data();
  const char* const end = bytes.data() + bytes.size();
  if (!carry_.empty()) {
    // Complete the line the previous feed left open.
    const char* eol = std::find(cursor, end, '\n');
    carry_.append(cursor, eol);
    if (eol == end) return;
    cursor = eol + 1;
    const bool ok = step(carry_.data(), carry_.data() + carry_.size());
    carry_.clear();
    if (!ok) return;
  }
  while (cursor < end) {
    const char* eol = std::find(cursor, end, '\n');
    if (eol == end) {
      carry_.assign(cursor, end);
      return;
    }
    if (!step(cursor, eol)) return;
    cursor = eol + 1;
  }
}

CheckResult StreamChecker::Impl::finish() {
  if (!failed_ && !carry_.empty()) {
    (void)step(carry_.data(), carry_.data() + carry_.size());
    carry_.clear();
  }
  if (failed_) return std::move(result_);
  if (!saw_header_) {
    ++line_no_;
    fail("empty proof");
  } else if (opts_.require_global_unsat && !result_.concluded_global_unsat) {
    ++line_no_;
    fail("proof never concludes global unsatisfiability");
  } else {
    result_.ok = true;
  }
  return std::move(result_);
}

bool StreamChecker::Impl::step(const char* begin, const char* end) {
  Line line(begin, end);
  ++line_no_;

  std::string_view kind;
  if (!line.word(kind)) return true;  // blank line
  if (!saw_header_) {
    std::string_view fmt;
    std::string_view version;
    if (kind != "p" || !line.word(fmt) || fmt != "aspmt" ||
        !line.word(version) || version != "1") {
      return fail("missing or unsupported 'p aspmt 1' header");
    }
    saw_header_ = true;
    return true;
  }

  if (kind == "I" || kind == "L") {
    if (const char* bad = read_lits(line, lits_, "unterminated clause")) {
      return fail(bad);
    }
    canonicalize(lits_);
    if (kind == "L") {
      if (const char* bad = read_hints(line)) return fail(bad);
      const Clock::time_point start = Clock::now();
      bool ok = !hints_.empty() && walk_hints(lits_);
      if (ok) {
        ++result_.hinted_learnts;
      } else {
        ++result_.rup_fallbacks;
        ok = rup(lits_);
      }
      result_.rup_seconds += seconds_since(start);
      if (!ok) return fail("learnt clause is not RUP");
      ++result_.learnt_clauses;
    } else {
      if (!note_structural_lits(lits_)) {
        return fail("input clause mentions a replay guard variable");
      }
      ++result_.input_clauses;
    }
    install(lits_);
  } else if (kind == "G") {
    if (const char* bad = read_lits(line, lits_, "unterminated guarded clause")) {
      return fail(bad);
    }
    if (lits_.empty()) return fail("guarded clause without a guard literal");
    const std::int64_t guard = lits_.front();
    if (guard <= 0) return fail("guard literal must be positive");
    if ((flags(guard) & kAxiomVar) != 0) {
      return fail("guard variable is not fresh w.r.t. the axioms");
    }
    for (std::size_t i = 1; i < lits_.size(); ++i) {
      if (std::abs(lits_[i]) == guard) {
        return fail("guard variable occurs in its own clause tail");
      }
      std::uint8_t& f = flags(lits_[i]);
      if ((f & kGuardVar) != 0) {
        return fail("guarded clause tail mentions a guard variable");
      }
      f |= kAxiomVar | kStructuralVar;
    }
    flags(guard) |= kGuardVar;
    lits_.front() = -guard;  // the clause is the tail plus the guard's negation
    canonicalize(lits_);
    ++result_.guarded_clauses;
    install(lits_);
  } else if (kind == "T") {
    std::string_view tag;
    if (!line.word(tag)) return fail("theory step without tag");
    payload_.clear();
    std::string_view tok;
    bool separated = false;
    while (line.word(tok)) {
      if (tok == ";") {
        separated = true;
        break;
      }
      std::int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec != std::errc{} || res.ptr != tok.data() + tok.size()) {
        return fail("malformed theory payload");
      }
      payload_.push_back(v);
    }
    if (!separated) return fail("theory step without ';' separator");
    if (const char* bad = read_lits(line, lits_, "unterminated clause")) {
      return fail(bad);
    }
    canonicalize(lits_);
    if (!note_axiom_lits(lits_)) {
      return fail("theory lemma mentions a replay guard variable");
    }
    const Clock::time_point start = Clock::now();
    const std::string why = verify_lemma(tag, payload_, lits_);
    const double took = seconds_since(start);
    result_.theory_seconds += took;
    const auto* slot = std::find(kTheoryTags.begin(), kTheoryTags.end(), tag);
    if (slot != kTheoryTags.end()) {
      result_.theory_tag_seconds[static_cast<std::size_t>(
          slot - kTheoryTags.begin())] += took;
    }
    if (!why.empty()) return fail("theory lemma rejected: " + why);
    ++result_.theory_lemmas;
    install(lits_);
  } else if (kind == "D") {
    if (const char* bad = read_lits(line, lits_, "unterminated deletion")) {
      return fail(bad);
    }
    bool matched = false;
    if (line.at_end()) {
      canonicalize(lits_);
      matched = remove(lits_);
    } else {
      std::int64_t id = 0;
      std::int64_t zero = 0;
      if (!line.integer(id) || id < 1 || !line.integer(zero) || zero != 0 ||
          !line.at_end()) {
        return fail("malformed deletion id");
      }
      matched = retire(id);
    }
    ++result_.deletions;
    if (!matched) ++result_.unmatched_deletions;
  } else if (kind == "U") {
    if (const char* bad = read_lits(line, lits_, "unterminated conclusion")) {
      return fail(bad);
    }
    const Clock::time_point start = Clock::now();
    const bool refuted = refutes_assumptions(lits_);
    result_.rup_seconds += seconds_since(start);
    if (!refuted) {
      return fail("Unsat conclusion is not supported by the database");
    }
    ++result_.conclusions;
    if (lits_.empty()) result_.concluded_global_unsat = true;
    if (opts_.shard_objective >= 0) maybe_record_shard_box(lits_);
  } else if (kind == "M") {
    // model marker — nothing to verify on the proof side
  } else if (kind == "X") {
    std::int64_t zero = 0;
    if (!line.integer(zero) || zero != 0) {
      return fail("malformed truncation marker");
    }
    result_.truncated = true;
  } else if (kind == "F") {
    std::int64_t k = 0;
    if (!line.count(k)) return fail("malformed feasible point");
    std::vector<std::int64_t> point(static_cast<std::size_t>(k));
    for (auto& v : point) {
      if (!line.integer(v)) return fail("malformed feasible point");
    }
    std::int64_t zero = 0;
    if (!line.integer(zero) || zero != 0) {
      return fail("unterminated feasible point");
    }
    if (!opts_.trust_feasible_steps &&
        std::find(opts_.feasible_points.begin(), opts_.feasible_points.end(),
                  point) == opts_.feasible_points.end()) {
      return fail("feasible point lacks a validated witness");
    }
    feasible_.push_back(std::move(point));
    ++result_.feasible_points;
  } else if (kind == "S") {
    std::int64_t id = 0;
    std::int64_t n = 0;
    if (!line.integer(id) || !line.count(n) ||
        id != static_cast<std::int64_t>(sums_.size())) {
      return fail("malformed sum definition");
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> terms;
    terms.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      std::int64_t guard = 0;
      std::int64_t weight = 0;
      if (!read_lit(line, guard) || !line.integer(weight) || guard == 0 ||
          weight < 0) {
        return fail("malformed sum term");
      }
      if (!note_structural_var(guard)) {
        return fail("sum term mentions a replay guard variable");
      }
      terms.emplace_back(guard, weight);
    }
    sums_.push_back(std::move(terms));
  } else if (kind == "SB") {
    std::int64_t id = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(id) || !line.integer(bound) || !read_lit(line, act) ||
        id < 0 || static_cast<std::size_t>(id) >= sums_.size()) {
      return fail("malformed sum bound");
    }
    if (!note_axiom_var(act)) {
      return fail("sum bound mentions a replay guard variable");
    }
    sum_bounds_.insert({id, bound, act});
    note_bound_act(0, id, bound, act);
  } else if (kind == "SL") {
    std::int64_t id = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(id) || !line.integer(bound) || !read_lit(line, act) ||
        id < 0 || static_cast<std::size_t>(id) >= sums_.size()) {
      return fail("malformed sum floor");
    }
    if (!note_axiom_var(act)) {
      return fail("sum floor mentions a replay guard variable");
    }
    sum_lower_bounds_.insert({id, bound, act});
    note_bound_act(1, id, bound, act);
  } else if (kind == "N") {
    std::int64_t id = 0;
    if (!line.integer(id) || id != num_nodes_) {
      return fail("malformed node definition");
    }
    ++num_nodes_;
  } else if (kind == "E") {
    std::int64_t id = 0;
    Edge e;
    std::int64_t n = 0;
    if (!line.integer(id) || !line.integer(e.from) || !line.integer(e.to) ||
        !line.integer(e.weight) || !line.count(n) ||
        id != static_cast<std::int64_t>(edges_.size()) || e.from < 0 ||
        e.from >= num_nodes_ || e.to < 0 || e.to >= num_nodes_) {
      return fail("malformed edge definition");
    }
    e.guards.resize(static_cast<std::size_t>(n));
    for (auto& g : e.guards) {
      if (!read_lit(line, g) || g == 0) return fail("malformed edge guard");
      if (!note_structural_var(g)) {
        return fail("edge guard mentions a replay guard variable");
      }
    }
    edges_.push_back(std::move(e));
  } else if (kind == "NB") {
    std::int64_t id = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(id) || !line.integer(bound) || !read_lit(line, act) ||
        id < 0 || id >= num_nodes_) {
      return fail("malformed node bound");
    }
    if (!note_axiom_var(act)) {
      return fail("node bound mentions a replay guard variable");
    }
    node_bounds_.insert({id, bound, act});
    note_bound_act(2, id, bound, act);
  } else if (kind == "O") {
    std::int64_t obj = 0;
    if (!line.integer(obj) || obj < 0) {
      return fail("malformed objective binding");
    }
    ObjTree tree;
    std::size_t nodes = 0;
    const std::string why = parse_obj_tree(line, tree, 0, nodes);
    if (!why.empty()) return fail("malformed objective binding: " + why);
    std::string_view rest;
    if (line.word(rest)) {
      return fail("malformed objective binding: trailing tokens");
    }
    if (objectives_.size() < static_cast<std::size_t>(obj) + 1) {
      objectives_.resize(static_cast<std::size_t>(obj) + 1);
    }
    objectives_[static_cast<std::size_t>(obj)] = std::move(tree);
  } else if (kind == "OB") {
    std::int64_t obj = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(obj) || !line.integer(bound) || !read_lit(line, act) ||
        obj < 0 || static_cast<std::size_t>(obj) >= objectives_.size() ||
        objectives_[static_cast<std::size_t>(obj)].kind == 0) {
      return fail("combinator bound on an undeclared objective");
    }
    if (!note_axiom_var(act)) {
      return fail("combinator bound mentions a replay guard variable");
    }
    comb_bounds_.insert({obj, bound, act});
    note_bound_act(3, obj, bound, act);
  } else if (kind == "FP") {
    FloorPairClaim c;
    if (!line.integer(c.floor_sum) || !read_lit(line, c.lit) || c.lit == 0 ||
        !line.integer(c.message) || !line.integer(c.src_resource) ||
        !line.integer(c.dst_resource) || !line.at_end() ||
        !known_sum(c.floor_sum)) {
      return fail("malformed floor pair");
    }
    __int128 weight = 0;
    bool term = false;
    for (const auto& [g, w] : sums_[static_cast<std::size_t>(c.floor_sum)]) {
      if (g != c.lit) continue;
      weight += w;
      term = true;
    }
    if (!term) return fail("floor pair literal is not a term of its floor sum");
    if (!floor_pair_keys_.insert({c.floor_sum, c.lit}).second) {
      return fail("floor pair declared twice");
    }
    c.weight = static_cast<std::int64_t>(std::min<__int128>(
        weight, std::numeric_limits<std::int64_t>::max()));
    result_.floor_pairs.push_back(c);
  } else if (kind == "FE") {
    FloorEdgeClaim c;
    if (!line.integer(c.edge) || !line.integer(c.message) ||
        !line.integer(c.src_option) || !line.integer(c.dst_option) ||
        !line.at_end() || c.edge < 0 ||
        c.edge >= static_cast<std::int64_t>(edges_.size())) {
      return fail("malformed floor edge");
    }
    if (!floor_edge_keys_.insert(c.edge).second) {
      return fail("floor edge declared twice");
    }
    c.weight = edges_[static_cast<std::size_t>(c.edge)].weight;
    result_.floor_edges.push_back(c);
  } else if (kind == "PR") {
    Rule r;
    std::int64_t n = 0;
    if (!read_lit(line, r.head) || r.head == 0 || !read_lit(line, r.body) ||
        r.body == 0 || !line.count(n)) {
      return fail("malformed program rule");
    }
    r.pos_heads.resize(static_cast<std::size_t>(n));
    for (auto& h : r.pos_heads) {
      if (!read_lit(line, h) || h == 0) return fail("malformed program rule");
    }
    if (!note_structural_var(r.head) || !note_structural_var(r.body) ||
        !note_structural_lits(r.pos_heads)) {
      return fail("program rule mentions a replay guard variable");
    }
    rules_.push_back(std::move(r));
  } else {
    return fail("unknown step kind '" + std::string(kind) + "'");
  }
  return true;
}

StreamChecker::StreamChecker(CheckOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}
StreamChecker::~StreamChecker() = default;

void StreamChecker::feed(std::string_view bytes) { impl_->feed(bytes); }

void StreamChecker::admit(std::vector<std::int64_t> point) {
  impl_->admit(std::move(point));
}

bool StreamChecker::failed() const noexcept { return impl_->failed(); }

CheckResult StreamChecker::finish() { return impl_->finish(); }

CheckResult check_proof(std::string_view proof, const CheckOptions& options) {
  StreamChecker checker(options);
  checker.feed(proof);
  return checker.finish();
}

}  // namespace aspmt::cert
