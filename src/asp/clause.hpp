// Clause storage for the CDCL engine: a flat arena with compacting GC.
//
// All clauses of one solver live in a single contiguous buffer of 32-bit
// words.  Each clause is a packed 3-word header (size + flag bits, LBD /
// relocation forward, activity) followed by its literals inline, and is
// addressed by a 32-bit `ClauseRef` offset instead of a pointer.  Compared
// to the previous deque-of-Clause layout (node pointer -> Clause -> second
// heap block for the literals) this removes one dependent pointer chase per
// watcher visit, halves the watcher footprint, and lets the propagation
// loop walk memory that stays hot in cache.  Offsets also survive arena
// growth, so references stay valid while clauses are being added.
//
// Deleting a clause only marks it and accounts the space as wasted; the
// solver triggers ClauseArena-assisted compaction (see
// Solver::garbage_collect) which copies the survivors into a fresh arena
// and rewrites every watcher/reason through reloc().  A relocated clause
// leaves a forwarding reference behind (kRelocedBit + forward in the LBD
// word) so shared references converge to the same copy.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "asp/literal.hpp"
#include "asp/proof.hpp"

namespace aspmt::asp {

/// Offset of a clause inside its solver's ClauseArena.
using ClauseRef = std::uint32_t;

/// Sentinel: "no clause" (decision / root-unit reasons, no conflict).
inline constexpr ClauseRef kClauseRefUndef = 0xffffffffU;

namespace clause_detail {
// Header word 0: [reloced:1][deleted:1][learnt:1][size:29].
inline constexpr std::uint32_t kLearntBit = 1U << 29;
inline constexpr std::uint32_t kDeletedBit = 1U << 30;
inline constexpr std::uint32_t kRelocedBit = 1U << 31;
inline constexpr std::uint32_t kSizeMask = kLearntBit - 1;
// The literals follow the header word immediately; LBD and activity live
// in a two-word *trailer* behind them, and arenas of proof-logging solvers
// append a third trailer word, the clause's proof id.  Propagation only
// ever reads the header word and literals, so keeping the bookkeeping out
// of that span tightens the bytes actually touched per clause visit.  Once
// a clause is relocated, literal slot 0 is reused for the forwarding
// ClauseRef (the stale copy is never read as a clause again).
inline constexpr std::uint32_t kHeaderWords = 1;
inline constexpr std::uint32_t kTrailerWords = 2;
inline constexpr std::uint32_t kProofIdWords = 1;
}  // namespace clause_detail

/// Non-owning view of one clause inside the arena.  Handles are cheap to
/// construct and must be treated as invalidated by any arena allocation or
/// compaction (the underlying buffer may move).
class Clause {
 public:
  [[nodiscard]] std::size_t size() const noexcept {
    return raw(0).index() & clause_detail::kSizeMask;
  }
  [[nodiscard]] Lit& operator[](std::size_t i) noexcept {
    return p_[clause_detail::kHeaderWords + i];
  }
  [[nodiscard]] Lit operator[](std::size_t i) const noexcept {
    return p_[clause_detail::kHeaderWords + i];
  }
  [[nodiscard]] std::span<const Lit> lits() const noexcept {
    return {p_ + clause_detail::kHeaderWords, size()};
  }
  [[nodiscard]] std::span<Lit> lits() noexcept {
    return {p_ + clause_detail::kHeaderWords, size()};
  }

  [[nodiscard]] bool learnt() const noexcept {
    return (raw(0).index() & clause_detail::kLearntBit) != 0;
  }
  [[nodiscard]] bool deleted() const noexcept {
    return (raw(0).index() & clause_detail::kDeletedBit) != 0;
  }

  [[nodiscard]] float activity() const noexcept {
    return std::bit_cast<float>(raw(activity_slot()).index());
  }
  void bump_activity(float inc) noexcept { set_activity(activity() + inc); }
  void scale_activity(float f) noexcept { set_activity(activity() * f); }

  [[nodiscard]] std::uint32_t lbd() const noexcept {
    return raw(lbd_slot()).index();
  }
  void set_lbd(std::uint32_t lbd) noexcept { set_raw(lbd_slot(), lbd); }

 private:
  friend class ClauseArena;

  explicit Clause(Lit* base) noexcept : p_(base) {}

  // Header words are stored as raw 32-bit values in Lit slots so the whole
  // arena is one homogeneous std::vector<Lit>.
  [[nodiscard]] Lit raw(std::size_t i) const noexcept { return p_[i]; }
  void set_raw(std::size_t i, std::uint32_t v) noexcept {
    p_[i] = Lit::from_index(v);
  }
  void set_activity(float a) noexcept {
    set_raw(activity_slot(), std::bit_cast<std::uint32_t>(a));
  }

  // Trailer slots sit behind the literals (see clause_detail).
  [[nodiscard]] std::size_t lbd_slot() const noexcept {
    return clause_detail::kHeaderWords + size();
  }
  [[nodiscard]] std::size_t activity_slot() const noexcept {
    return lbd_slot() + 1;
  }
  /// Only arenas that keep proof ids have this slot.
  [[nodiscard]] std::size_t proof_id_slot() const noexcept {
    return activity_slot() + 1;
  }

  void mark_deleted() noexcept {
    set_raw(0, raw(0).index() | clause_detail::kDeletedBit);
  }
  [[nodiscard]] bool reloced() const noexcept {
    return (raw(0).index() & clause_detail::kRelocedBit) != 0;
  }
  [[nodiscard]] ClauseRef forward() const noexcept {
    return raw(clause_detail::kHeaderWords).index();
  }
  void set_forward(ClauseRef to) noexcept {
    set_raw(0, raw(0).index() | clause_detail::kRelocedBit);
    set_raw(clause_detail::kHeaderWords, to);  // overwrites literal slot 0
  }

  Lit* p_;
};

static_assert(sizeof(Lit) == sizeof(std::uint32_t));

/// Flag bit folded into Watcher::clause for binary clauses: the blocker is
/// the whole rest of the clause, so propagation resolves the visit (skip,
/// imply, or conflict) from the watcher alone without touching clause
/// memory.  Limits the arena to 2^31 words, which alloc() asserts.
inline constexpr ClauseRef kWatcherBinaryFlag = 0x80000000U;

/// Bump allocator for clauses with mark-and-compact garbage collection.
class ClauseArena {
 public:
  /// `proof_ids`: give every clause a trailer word for its proof id.  Only
  /// proof-logging solvers pay for it.
  explicit ClauseArena(bool proof_ids = false) noexcept
      : trailer_words_(clause_detail::kTrailerWords +
                       (proof_ids ? clause_detail::kProofIdWords : 0)) {}

  /// Allocate a clause; returns its offset.  References returned earlier
  /// remain valid (the buffer grows, offsets do not change).  `id` is kept
  /// only by arenas that keep proof ids.
  ClauseRef alloc(std::span<const Lit> lits, bool learnt,
                  ProofId id = kNoProofId) {
    assert(lits.size() <= clause_detail::kSizeMask);
    const std::size_t need =
        clause_detail::kHeaderWords + lits.size() + trailer_words_;
    assert(mem_.size() + need < kWatcherBinaryFlag &&
           "clause arena exceeds 31-bit addressing");
    const auto ref = static_cast<ClauseRef>(mem_.size());
    mem_.resize(mem_.size() + need);
    Clause c(mem_.data() + ref);
    // The size must be in place before the trailer slots can be located.
    c.set_raw(0, static_cast<std::uint32_t>(lits.size()) |
                     (learnt ? clause_detail::kLearntBit : 0U));
    for (std::size_t i = 0; i < lits.size(); ++i) c[i] = lits[i];
    c.set_lbd(0);
    c.set_activity(0.0F);
    if (keeps_proof_ids()) c.set_raw(c.proof_id_slot(), id);
    return ref;
  }

  [[nodiscard]] bool keeps_proof_ids() const noexcept {
    return trailer_words_ > clause_detail::kTrailerWords;
  }

  /// The proof id the clause was allocated with; kNoProofId when this arena
  /// keeps no ids.
  [[nodiscard]] ProofId proof_id(ClauseRef ref) const noexcept {
    if (!keeps_proof_ids()) return kNoProofId;
    const Clause c = (*this)[ref];
    return c.raw(c.proof_id_slot()).index();
  }

  [[nodiscard]] Clause operator[](ClauseRef ref) noexcept {
    return Clause(mem_.data() + ref);
  }
  /// Read-only access; the returned handle must not be written through.
  [[nodiscard]] Clause operator[](ClauseRef ref) const noexcept {
    return Clause(const_cast<Lit*>(mem_.data()) + ref);
  }

  /// Mark a clause dead and account its space as reclaimable.  The memory
  /// stays valid (and the clause keeps answering deleted()) until the next
  /// compaction.
  void free(ClauseRef ref) noexcept {
    Clause c = (*this)[ref];
    assert(!c.deleted());
    c.mark_deleted();
    wasted_ += clause_detail::kHeaderWords + c.size() + trailer_words_;
  }

  /// Move the clause behind `ref` into arena `to` (first visit copies and
  /// leaves a forwarding reference; later visits follow it) and update
  /// `ref` in place.  Precondition: the clause is not deleted.
  void reloc(ClauseRef& ref, ClauseArena& to) {
    Clause c = (*this)[ref];
    if (c.reloced()) {
      ref = c.forward();
      return;
    }
    assert(!c.deleted());
    const ClauseRef nr = to.alloc(c.lits(), c.learnt(), proof_id(ref));
    Clause nc = to[nr];
    nc.set_lbd(c.lbd());
    nc.set_activity(c.activity());
    c.set_forward(nr);
    ref = nr;
  }

  /// Like reloc(), but for references that may point at freed clauses
  /// (watcher lists after reduce_learnt_db): returns false — leaving `ref`
  /// untouched — when the clause was freed, true after
  /// relocating/forwarding it otherwise.
  [[nodiscard]] bool reloc_if_alive(ClauseRef& ref, ClauseArena& to) {
    const Clause c = (*this)[ref];
    if (c.reloced()) {
      ref = c.forward();
      return true;
    }
    if (c.deleted()) return false;
    reloc(ref, to);
    return true;
  }

  void reserve(std::size_t words) { mem_.reserve(words); }

  /// Start of the arena buffer — for software prefetching only (the
  /// propagation loop hints the next watcher's clause while it works on
  /// the current one).
  [[nodiscard]] const Lit* base() const noexcept { return mem_.data(); }

  [[nodiscard]] std::size_t size_words() const noexcept { return mem_.size(); }
  [[nodiscard]] std::size_t wasted_words() const noexcept { return wasted_; }

  friend void swap(ClauseArena& a, ClauseArena& b) noexcept {
    a.mem_.swap(b.mem_);
    std::swap(a.wasted_, b.wasted_);
    std::swap(a.trailer_words_, b.trailer_words_);
  }

 private:
  std::vector<Lit> mem_;
  std::size_t wasted_ = 0;
  std::uint32_t trailer_words_;
};

/// Watcher entry: the watched clause plus a "blocker" literal whose truth
/// makes visiting the clause unnecessary.  8 bytes — two per cache line
/// more than the pointer-based predecessor.
struct Watcher {
  ClauseRef clause = kClauseRefUndef;  ///< may carry kWatcherBinaryFlag
  Lit blocker = kLitUndef;
};

}  // namespace aspmt::asp
