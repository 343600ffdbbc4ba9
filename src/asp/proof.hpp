// DRAT-style proof logging for the ASPmT stack.
//
// When a ProofLog is attached, the solver and every theory propagator emit a
// line-oriented trace of the whole incremental session: the constraint
// system as it is declared (input clauses, linear sums, difference edges,
// bound declarations, program rules, objective bindings), every inference
// (learnt clauses as RUP additions, theory lemmas with a tagged
// justification), deletions, and one conclusion step per solve() call that
// ends in Unsat.  The stream is replayable by the solver-independent checker
// in src/cert/, which re-runs unit propagation for every RUP step and
// re-derives every theory lemma from the declared theory data alone — so an
// Unsat answer (and with it the exactness of an explored Pareto front)
// becomes a machine-checkable fact instead of a solver's word.
//
// Format (text, one step per line, literals as signed 1-based integers):
//
//   p aspmt 1                         header
//   S  <sum> <n> (<lit> <w>)*        linear sum definition
//   SB <sum> <bound> <act>           sum bound declaration (act 0 = none)
//   SL <sum> <bound> <act>           sum floor declaration  sum >= bound
//                                    (shard banding; act 0 = none)
//   N  <node>                        difference-logic node
//   E  <edge> <from> <to> <w> <n> <lit>*   guarded edge  to >= from + w
//   NB <node> <bound> <act>          node bound declaration
//   O  <obj> <term>                  objective binding; <term> is a tree:
//                                      L <sum> | D <node>
//                                    | F <sum> <k> <floor>{k}     floored leaf
//                                    | X <k> <cap>{k} <term>{k}   lex packing
//                                    | M <k> <term>{k}            min-max
//                                    | W <k> <w>{k} <term>{k}     weighted
//                                    | V <k> <term>{k}            scenario worst
//                                    (leaf-only bindings are the legacy form;
//                                    a floored leaf is bounded by the max of
//                                    its primary sum and its floor sums, and
//                                    every floor-sum term must be a primary
//                                    term on the same literal with at least
//                                    its weight, or a declared FP literal)
//   FP <floor> <lit> <msg> <r_src> <r_dst>
//                                    floor pair: <lit> (a term of floor sum
//                                    <floor>) holds only when message <msg>
//                                    has its endpoints bound to resources
//                                    <r_src>/<r_dst>; its weight claims at
//                                    most the message's cheapest
//                                    communication energy between the two
//   FE <edge> <msg> <opt_src> <opt_dst>
//                                    floor edge: declared edge <edge> is the
//                                    delay floor of message <msg> between
//                                    mapping options <opt_src>/<opt_dst>; its
//                                    weight claims at most the source's WCET
//                                    plus the cheapest communication delay
//                                    (FP/FE weights are re-derived from the
//                                    specification by cert::certify_front)
//   OB <obj> <bound> <act>           combinator-axis bound declaration:
//                                    objective <obj> <= bound while act holds
//   PR <head> <body> <n> <poshead>*  program rule (for loop nogoods)
//   I  <lit>* 0                      input clause (axiom)
//   G  <guard> <lit>* 0              guarded replay axiom: the clause
//                                    (-guard v lits) is installed.  The
//                                    checker admits it only when the guard
//                                    variable is *pure*: fresh w.r.t. every
//                                    axiom/declaration and occurring only
//                                    negatively in axioms, so any model of
//                                    the original system extends with
//                                    guard=false and Unsat is preserved.
//   L  <lit>* 0 [<hint>* 0]          learnt clause, RUP-checkable; the
//                                    optional hints are the ids of its
//                                    antecedent clauses in propagation
//                                    order, the conflicting clause last
//   T  <tag> <payload>* ; <lit>* 0   theory lemma with justification
//   D  <lit>* 0 [<id> 0]             clause deletion; the optional trailer
//                                    names the deleted clause's id, which
//                                    retires exactly that clause (the
//                                    literals may be a root-simplified
//                                    subset of it); without it the clause
//                                    is found by its literal set
//   U  <lit>* 0                      Unsat conclusion under assumptions
//                                    (no literals = global unsatisfiability)
//   M  0                             model accepted (marker)
//   F  <k> <v>* 0                    feasible objective vector published
//   X  0                             stream truncated (budget/interrupt);
//                                    everything above remains checkable
//
// Clause ids: the clause-introducing steps (I, G, L, T) are numbered 1, 2,
// 3, ... in stream order; no line carries its own id, writer and checker
// both count.  Hints reference these ids.  Deleting a clause does not free
// its id.  A hint list only speeds the checker up: one it cannot follow (an
// unknown or later id, a clause no longer in the database, a clause that
// is neither unit nor false when reached, no conflict at the end) sends it
// back to full RUP search, so hints never change which proofs are
// accepted, and removing every hint list yields a valid proof.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asp/literal.hpp"

namespace aspmt::asp {

/// Which theory justifies an injected lemma; drives the checker's
/// re-derivation.
enum class TheoryTag : std::uint8_t {
  DiffCycle,    ///< positive cycle among edges guarded by the clause literals
  DiffBound,    ///< longest path to a node exceeds a declared bound
  LinearBound,  ///< weighted true guards exceed a declared sum bound
  Unfounded,    ///< loop nogood for an unfounded set (payload: head lits)
  Dominance,    ///< region weakly dominated by a certified feasible point
  LinearLower,  ///< falsified guards forfeit too much weight for a sum floor
  CombinatorBound,  ///< combinator-axis lower bound exceeds a declared OB bound
};

/// 1-based ordinal of a clause-introducing step (I, G, L, T) in its stream.
using ProofId = std::uint32_t;
/// "No id": the clause was not logged (or the id space is exhausted).
inline constexpr ProofId kNoProofId = 0;

struct TheoryJustification {
  TheoryTag tag;
  /// Tag-specific integers (bounds, node/sum ids, points, head literals).
  std::vector<std::int64_t> payload;
};

/// Append-only proof stream.  Not thread-safe: in portfolio solving every
/// worker owns its own log.  Every clause-introducing step returns its id.
///
/// The bytes are kept as chunks.  Once the open chunk reaches kChunkBytes
/// it is sealed at the end of the line that crossed the mark, and a sealed
/// chunk is never changed or moved again: another thread may read it while
/// this log keeps growing.  A chunk sink hears of every sealed chunk, which
/// is how a checker replays the stream while the solver writes it.
class ProofLog {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  using ChunkSink = std::function<void(std::string_view chunk)>;

  ProofLog() { buf_ = "p aspmt 1\n"; }

  /// Hand every chunk to `sink` as it is sealed; set it before the first
  /// chunk is.  The bytes stay valid until release() or destruction.
  void set_chunk_sink(ChunkSink sink);
  /// Seal the open chunk now, if it holds any bytes: the end of a search.
  void seal();

  // ---- constraint-system declarations ------------------------------------
  void def_sum(std::uint32_t sum, std::span<const std::pair<Lit, std::int64_t>> terms);
  void def_sum_bound(std::uint32_t sum, std::int64_t bound, Lit activation);
  /// `sum >= bound` floor (distributed shard banding): `SL <sum> <bound> <act>`.
  void def_sum_lower_bound(std::uint32_t sum, std::int64_t bound, Lit activation);
  void def_node(std::uint32_t node);
  void def_edge(std::uint32_t edge, std::uint32_t from, std::uint32_t to,
                std::int64_t weight, std::span<const Lit> guards);
  void def_node_bound(std::uint32_t node, std::int64_t bound, Lit activation);
  void def_objective_linear(std::size_t objective, std::uint32_t sum);
  void def_objective_diff(std::size_t objective, std::uint32_t node);
  /// Tree objective binding: `O <obj> <tree_tokens>`.  A leaf-only token
  /// string degenerates to the legacy linear/diff binding line.
  void def_objective_term(std::size_t objective, std::string_view tree_tokens);
  /// Combinator-axis bound declaration: `OB <obj> <bound> <act>`.
  void def_objective_bound(std::size_t objective, std::int64_t bound,
                           Lit activation);
  void def_rule(Lit head, Lit body, std::span<const Lit> positive_heads);
  /// Floor-pair declaration: `FP <floor_sum> <lit> <msg> <r_src> <r_dst>`.
  void def_floor_pair(std::uint32_t floor_sum, Lit lit, std::uint32_t message,
                      std::uint32_t src_resource, std::uint32_t dst_resource);
  /// Floor-edge declaration: `FE <edge> <msg> <opt_src> <opt_dst>`.
  void def_floor_edge(std::uint32_t edge, std::uint32_t message,
                      std::size_t src_option, std::size_t dst_option);

  // ---- inference steps ----------------------------------------------------
  ProofId input_clause(std::span<const Lit> lits) {
    clause_step('I', lits);
    return next_id();
  }
  /// Replayed clause installed behind an assumption guard: logs
  /// `G <guard> <lits> 0`, meaning the clause (-guard v lits) holds by
  /// construction.  See the format doc for the purity conditions the
  /// checker enforces.
  ProofId guarded_clause(Lit guard, std::span<const Lit> lits);
  /// `L <lits> 0`, followed by `<hints> 0` when `hints` is non-empty.
  ProofId learnt_clause(std::span<const Lit> lits,
                        std::span<const ProofId> hints = {});
  /// `D <lits> 0`, followed by `<id> 0` when the clause's id is known.
  void delete_clause(std::span<const Lit> lits, ProofId id = kNoProofId);
  ProofId theory_clause(const TheoryJustification& just, std::span<const Lit> lits);
  void conclude_unsat(std::span<const Lit> assumptions) {
    clause_step('U', assumptions);
  }
  void sat_marker() {
    buf_ += "M 0";
    end_line();
  }
  void feasible_point(std::span<const std::int64_t> point);
  /// Honest label for a proof cut short by a budget trip or interrupt: the
  /// prefix stays verifiable step by step, but no Unsat conclusion (and
  /// hence no completeness claim) can follow.
  void truncation_marker() {
    buf_ += "X 0";
    end_line();
  }

  /// The whole stream, copied.
  [[nodiscard]] std::string text() const;
  /// The whole stream, moved out: a stream of one chunk is not copied, a
  /// longer one is concatenated once.  The log is left empty, without a
  /// sink.
  [[nodiscard]] std::string release();
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return sealed_bytes_ + buf_.size();
  }

 private:
  /// End the current line; seal the chunk once it is full.
  void end_line();
  void clause_step(char kind, std::span<const Lit> lits);
  void append_lit(Lit l);
  void append_int(std::int64_t v);
  /// Count one more clause-introducing step; kNoProofId once ids run out.
  ProofId next_id() noexcept {
    if (clauses_ == std::numeric_limits<ProofId>::max()) return kNoProofId;
    return ++clauses_;
  }

  std::deque<std::string> sealed_;  // a deque never moves its elements
  std::size_t sealed_bytes_ = 0;
  std::string buf_;  // the open chunk
  ChunkSink sink_;
  ProofId clauses_ = 0;  // clause-introducing steps logged so far
};

/// Signed 1-based integer encoding of a literal (DIMACS convention).
[[nodiscard]] inline std::int64_t proof_int(Lit l) noexcept {
  const auto v = static_cast<std::int64_t>(l.var()) + 1;
  return l.positive() ? v : -v;
}

}  // namespace aspmt::asp
