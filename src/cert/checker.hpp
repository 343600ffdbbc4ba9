// Solver-independent proof checker for the `p aspmt 1` stream emitted by
// asp::ProofLog.
//
// The checker shares no code with the solver: it re-parses the trace into
// its own clause database with its own watched-literal unit propagation,
// verifies every learnt clause by RUP (asserting the negation and
// propagating to a conflict — over just the hinted antecedent clauses when
// the step names them, by full unit propagation otherwise), re-derives
// every theory lemma from the
// declared theory data alone (sum/edge/bound/rule/objective declarations),
// and discharges every Unsat conclusion by asserting its assumptions and
// propagating.  A proof that survives makes the solver's Unsat answers —
// and with them the exactness of an explored Pareto front — independently
// machine-checked facts.
//
// Trust boundary: declarations (I/S/SB/SL/N/E/NB/O/PR/FP/FE) are axioms of
// the constraint system — they assert what problem was solved, not how.
// The certification layer (cert/certify.hpp) closes the remaining gap on
// the model side by validating every feasible point's witness against the
// specification with synth::Validator, and re-derives the weight of every
// declared floor source (CheckResult::floor_pairs / floor_edges) from the
// specification.
//
// The checker is incremental: a StreamChecker takes the stream in pieces
// split anywhere (a partial last line is carried over to the next piece),
// so it can replay a proof while the solver is still writing it.
// check_proof is one feed of the whole text; both give the same verdicts,
// counts and line-numbered errors.
//
// Resource contract: a step may mention variables up to the number of bytes
// fed so far plus 2^20 (for one feed of the whole proof: its length in bytes
// plus 2^20); the per-variable arrays are sized by that bound, so a short
// proof naming a huge variable is rejected rather than allocated for.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace aspmt::cert {

/// The theory-lemma tags, in the order of CheckResult::theory_tag_seconds.
inline constexpr std::array<std::string_view, 7> kTheoryTags = {
    "LS", "LL", "DB", "DC", "UF", "DOM", "CB"};

struct CheckOptions {
  /// Demand a global (assumption-free) Unsat conclusion in the stream —
  /// the completeness certificate of an exhaustive exploration.
  bool require_global_unsat = false;
  /// Accept `F` steps as evidence of feasibility for dominance lemmas.
  /// The certification layer disables this and supplies `feasible_points`
  /// instead, so only externally validated witnesses count.
  bool trust_feasible_steps = true;
  /// Externally certified feasible objective vectors.  When
  /// trust_feasible_steps is false these — and the points a StreamChecker
  /// admits later — are the only admissible dominance sources, and every
  /// `F` step must match one of them.
  std::vector<std::vector<std::int64_t>> feasible_points;
  /// When >= 0, extract *shard boxes* on this (linear) objective: every
  /// verified Unsat conclusion whose assumptions are all pure bound
  /// activations on the objective's sum contributes the interval
  /// [max SL floor, min SB ceiling] it proves empty modulo dominance.  See
  /// CheckResult::shard_boxes and cert::certify_merged.
  std::int64_t shard_objective = -1;
};

/// A declared floor pair (`FP` step): literal `lit`, a term of floor sum
/// `floor_sum` with `weight`, holds only when message `message` has its
/// endpoints on resources `src_resource`/`dst_resource`.  The checker takes
/// the declaration as part of the encoding; cert::certify_front re-derives
/// the weight's bound from the specification.
struct FloorPairClaim {
  std::int64_t floor_sum = 0;
  std::int64_t lit = 0;
  std::int64_t weight = 0;  ///< the literal's total weight in the floor sum
  std::int64_t message = 0;
  std::int64_t src_resource = 0;
  std::int64_t dst_resource = 0;
};

/// A declared floor edge (`FE` step): edge `edge`, of weight `weight`, is
/// the delay floor of message `message` between mapping options
/// `src_option`/`dst_option`.
struct FloorEdgeClaim {
  std::int64_t edge = 0;
  std::int64_t weight = 0;
  std::int64_t message = 0;
  std::int64_t src_option = 0;
  std::int64_t dst_option = 0;
};

struct CheckResult {
  bool ok = false;
  /// The stream contains a verified assumption-free Unsat conclusion.
  bool concluded_global_unsat = false;
  /// The stream carries an `X` truncation marker: a budget trip or
  /// interrupt cut the session short.  The replayed prefix is still sound,
  /// but completeness claims must not be made from this stream.
  bool truncated = false;
  std::size_t input_clauses = 0;
  /// Guarded replay axioms (`G` steps) admitted after the purity check:
  /// each guard variable is fresh w.r.t. every axiom/declaration and occurs
  /// only negatively in the installed clauses, so any model of the original
  /// system extends with guard=false and Unsat conclusions carry over.
  std::size_t guarded_clauses = 0;
  std::size_t learnt_clauses = 0;
  /// Learnt steps whose hints closed the conflict on their own.
  std::size_t hinted_learnts = 0;
  /// Learnt steps that needed full RUP search: they carried no hints, or
  /// their hints named an unknown, deleted or later clause, reached a
  /// satisfied or non-unit clause, or ran out before a conflict.
  std::size_t rup_fallbacks = 0;
  std::size_t theory_lemmas = 0;
  std::size_t deletions = 0;
  /// Deletions that retired nothing: their id trailer named no clause-
  /// introducing step or a clause already retired, or (without a trailer)
  /// no active clause has their literal set.  Zero on solver-written proofs.
  std::size_t unmatched_deletions = 0;
  std::size_t conclusions = 0;
  std::size_t feasible_points = 0;
  /// Literals assigned while checking learnt clauses (hint walks and RUP)
  /// and Unsat conclusions by propagation: the work behind rup_seconds.
  std::size_t propagations = 0;
  /// Wall seconds spent in those learnt-clause and conclusion checks.
  double rup_seconds = 0.0;
  /// Wall seconds spent re-deriving theory lemmas from the declarations.
  double theory_seconds = 0.0;
  /// theory_seconds split by lemma tag, in kTheoryTags order.
  std::array<double, kTheoryTags.size()> theory_tag_seconds{};
  /// With CheckOptions::shard_objective set: closed intervals [lo, hi] of
  /// the shard objective proven empty modulo dominance — each comes from a
  /// verified Unsat conclusion whose assumptions are *pure* box activations
  /// (positive literals that occur in no input clause, sum term, edge guard,
  /// rule, or replay step, and activate bounds only on the shard objective's
  /// sum).  Purity makes the cross-shard model-extension argument sound: a
  /// feasible design point inside the box extends to a model of the declared
  /// system with the box activations true and every other auxiliary variable
  /// false, so the verified Unsat means every such point is weakly dominated
  /// by a certified feasible point.  INT64_MIN/INT64_MAX encode unbounded
  /// ends; an assumption-free global Unsat contributes the full line.
  std::vector<std::array<std::int64_t, 2>> shard_boxes;
  /// A sum/node bound declaration with no (or a negative) activation literal
  /// was seen.  Such a bound holds unconditionally, so the model-extension
  /// argument above cannot switch it off — merged certification rejects
  /// shard streams carrying one.
  bool unsafe_bounds = false;
  /// The stream's floor declarations, in stream order.  Every floor-sum term
  /// of a floored objective leaf that is not covered by a primary term is
  /// one of floor_pairs.
  std::vector<FloorPairClaim> floor_pairs;
  std::vector<FloorEdgeClaim> floor_edges;
  /// First failure, with its 1-based line number; empty when ok.
  std::string error;
};

/// Replays a proof stream fed piece by piece.  Not thread-safe: one thread
/// feeds, admits and finishes.
class StreamChecker {
 public:
  explicit StreamChecker(CheckOptions options = {});
  ~StreamChecker();

  /// Replay the next bytes of the stream; any split is allowed.  Complete
  /// lines are checked now, a trailing partial line when the next feed (or
  /// finish) completes it.  After the first failure the rest is ignored.
  void feed(std::string_view bytes);
  /// Admit a validated feasible point (CheckOptions::feasible_points): `F`
  /// steps and dominance lemmas fed after this call may cite it.
  void admit(std::vector<std::int64_t> point);
  /// A fed step has been refused; finish() reports which.
  [[nodiscard]] bool failed() const noexcept;
  /// Check the final unterminated line, if any, and the end-of-stream
  /// conditions (a header, a global Unsat when required).  Call once.
  [[nodiscard]] CheckResult finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replay and verify a complete proof stream: one StreamChecker feed.
[[nodiscard]] CheckResult check_proof(std::string_view proof,
                                      const CheckOptions& options = {});

}  // namespace aspmt::cert
