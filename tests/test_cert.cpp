// The certification layer itself: hand-written proofs exercise every step
// kind of the checker, real explorer proofs must verify, and mutated real
// proofs must be rejected — a checker that accepts everything would make
// `certified: yes` meaningless.  Learnt-step hints only change how fast a
// verdict is reached: adversarial hint lists must never change it.  Every
// check here is also replayed in pieces, which must not change it either.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cert/certify.hpp"
#include "cert/checker.hpp"
#include "dse/explorer.hpp"
#include "proof_hints.hpp"
#include "stream_check.hpp"
#include "synth/specio.hpp"
#include "synth_fixtures.hpp"

#ifndef ASPMT_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define ASPMT_TEST_DATA_DIR"
#endif

namespace aspmt {
namespace {

/// The batch check of `proof`.  Every verdict in this file must come out
/// the same when the stream arrives in pieces that cut its lines, as a
/// checker running alongside the search receives it.
cert::CheckResult check(const std::string& proof, bool require_unsat = false) {
  cert::CheckOptions opts;
  opts.require_global_unsat = require_unsat;
  cert::CheckResult batch = cert::check_proof(proof, opts);
  test::expect_same_check(batch, test::check_in_pieces(proof, opts, 1021),
                          "fed in 1021-byte pieces");
  return batch;
}

TEST(ProofChecker, RejectsMissingHeader) {
  const auto r = check("I 1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("header"), std::string::npos) << r.error;
}

TEST(ProofChecker, VerifiesUnitContradiction) {
  const auto r = check("p aspmt 1\nI 1 0\nI -1 0\nU 0\n", true);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.concluded_global_unsat);
  EXPECT_EQ(r.input_clauses, 2U);
}

TEST(ProofChecker, RejectsUnsupportedConclusion) {
  const auto r = check("p aspmt 1\nI 1 2 0\nU 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("Unsat conclusion"), std::string::npos) << r.error;
}

TEST(ProofChecker, RejectsNonRupLearntClause) {
  const auto r = check("p aspmt 1\nI 1 2 0\nL 1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not RUP"), std::string::npos) << r.error;
}

TEST(ProofChecker, AcceptsRupLearntClauseAndAssumptionConclusion) {
  const auto r = check("p aspmt 1\nI 1 2 0\nI 1 -2 0\nL 1 0\nU -1 0\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.learnt_clauses, 1U);
  EXPECT_EQ(r.conclusions, 1U);
  EXPECT_FALSE(r.concluded_global_unsat);
}

TEST(ProofChecker, RequireUnsatRejectsSatOnlyProof) {
  const auto r = check("p aspmt 1\nI 1 2 0\nM 0\n", true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("never concludes"), std::string::npos) << r.error;
}

TEST(ProofChecker, VerifiesLinearSumLemma) {
  // sum 0 = 3*[g1] + 4*[g2], bound 5: both guards set exceeds the bound.
  const std::string prefix = "p aspmt 1\nS 0 2 1 3 2 4\nSB 0 5 0\n";
  EXPECT_TRUE(check(prefix + "T LS 0 5 0 ; -1 -2 0\n").ok);
  // A single guard only reaches 3 <= 5: the lemma claims too much.
  const auto weak = check(prefix + "T LS 0 5 0 ; -1 0\n");
  EXPECT_FALSE(weak.ok);
  EXPECT_NE(weak.error.find("do not exceed"), std::string::npos) << weak.error;
  // Undeclared bound: the lemma cites a constraint the solver never had.
  const auto undeclared = check(prefix + "T LS 0 4 0 ; -1 -2 0\n");
  EXPECT_FALSE(undeclared.ok);
  EXPECT_NE(undeclared.error.find("never declared"), std::string::npos)
      << undeclared.error;
}

TEST(ProofChecker, VerifiesDifferenceCycleLemma) {
  const std::string prefix =
      "p aspmt 1\nN 0\nN 1\nE 0 0 1 2 1 3\nE 1 1 0 2 1 4\n";
  EXPECT_TRUE(check(prefix + "T DC ; -3 -4 0\n").ok);
  // Dropping one guard from the clause breaks the cycle.
  const auto broken = check(prefix + "T DC ; -3 0\n");
  EXPECT_FALSE(broken.ok);
  EXPECT_NE(broken.error.find("no positive cycle"), std::string::npos)
      << broken.error;
}

TEST(ProofChecker, VerifiesNodeBoundLemma) {
  const std::string prefix =
      "p aspmt 1\nN 0\nN 1\nE 0 0 1 7 1 3\nNB 1 5 2\n";
  // Guarded longest path to node 1 is 7 > 5; clause negates guard and act.
  EXPECT_TRUE(check(prefix + "T DB 1 5 2 ; -3 -2 0\n").ok);
  const auto missing_act = check(prefix + "T DB 1 5 2 ; -3 0\n");
  EXPECT_FALSE(missing_act.ok);
  EXPECT_NE(missing_act.error.find("activation"), std::string::npos)
      << missing_act.error;
}

TEST(ProofChecker, VerifiesDominanceLemma) {
  // Objective 0 is sum 0 = 5*[g1]; feasible point (3) <= threshold (4).
  const std::string prefix =
      "p aspmt 1\nS 0 1 1 5\nO 0 L 0\nF 1 3 0\n";
  EXPECT_TRUE(check(prefix + "T DOM 1 4 ; -1 0\n").ok);
  // Without any feasible point at or below the threshold the pruning is
  // unjustified.
  const auto unjustified = check("p aspmt 1\nS 0 1 1 5\nO 0 L 0\nT DOM 1 4 ; -1 0\n");
  EXPECT_FALSE(unjustified.ok);
  EXPECT_NE(unjustified.error.find("no certified feasible point"),
            std::string::npos)
      << unjustified.error;
}

// ---- literal-range contract -------------------------------------------------

TEST(ProofChecker, RejectsLiteralBeyond32Bits) {
  const auto r = check("p aspmt 1\nL 4000000000000 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2: literal out of range"), std::string::npos)
      << r.error;
  // Declarations are held to the same contract.
  const auto act = check("p aspmt 1\nS 0 1 1 3\nSB 0 5 4000000000000\n");
  EXPECT_FALSE(act.ok);
  EXPECT_NE(act.error.find("line 3:"), std::string::npos) << act.error;
}

TEST(ProofChecker, RejectsInt64MinLiteral) {
  const auto r = check("p aspmt 1\nI 1 2 0\nL -9223372036854775808 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3: literal out of range"), std::string::npos)
      << r.error;
}

TEST(ProofChecker, RejectsCountsBeyondTheLine) {
  // A count that could not fit on its line is malformed, not an allocation.
  const auto r = check("p aspmt 1\nS 0 4000000000000 1 3\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2: malformed sum definition"), std::string::npos)
      << r.error;
}

// ---- literal sets and the deletion index -------------------------------------

TEST(ProofChecker, LemmaMarksDoNotLeakIntoTheNextLemma) {
  // The second lemma would hold only with the first lemma's -2 still marked.
  const auto sum = check(
      "p aspmt 1\nS 0 2 1 3 2 4\nSB 0 5 0\n"
      "T LS 0 5 0 ; -1 -2 0\nT LS 0 5 0 ; -1 0\n");
  EXPECT_FALSE(sum.ok);
  EXPECT_NE(sum.error.find("line 5: theory lemma rejected"), std::string::npos)
      << sum.error;
  const auto cycle = check(
      "p aspmt 1\nN 0\nN 1\nE 0 0 1 2 1 3\nE 1 1 0 2 1 4\n"
      "T DC ; -3 -4 0\nT DC ; -3 0\n");
  EXPECT_FALSE(cycle.ok);
  EXPECT_NE(cycle.error.find("line 7: theory lemma rejected"), std::string::npos)
      << cycle.error;
}

TEST(ProofChecker, DeletionRemovesExactlyOneOfTwoIdenticalClauses) {
  const auto r = check(
      "p aspmt 1\nI 1 2 0\nI 1 2 0\nI -1 2 0\n"
      "D 1 2 0\nU -2 0\n"   // the other copy still propagates 1
      "D 1 2 0\nU -2 0\n");  // no copy left
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 8: Unsat conclusion"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.conclusions, 1U);
  EXPECT_EQ(r.deletions, 2U);
}

TEST(ProofChecker, DeletionMatchesLiteralsInAnyOrder) {
  // The first conclusion moves the watch of (1 2 3) off 1, so the stored
  // order no longer matches the deletion's either.
  const auto r = check(
      "p aspmt 1\nI 1 2 3 0\nI -3 5 0\nI -3 -5 0\n"
      "U -1 -2 0\nD 3 1 2 0\nU -1 -2 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 7: Unsat conclusion"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.conclusions, 1U);
}

TEST(ProofChecker, UnmatchedDeletionIsANoOp) {
  const auto r = check(
      "p aspmt 1\nI 1 2 0\nI -1 2 0\n"
      "D 1 3 0\nD 1 2 3 0\nD 1 0\nD 7 8 0\nU -2 0\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.deletions, 4U);
  EXPECT_EQ(r.unmatched_deletions, 4U);
  EXPECT_EQ(r.conclusions, 1U);
}

TEST(ProofChecker, DeletionIdRetiresExactlyThatClause) {
  // The trailer names clause 1 although its literals are only a subset of
  // it, as a root-simplified clause's deletion logs them.
  const auto retired = check(
      "p aspmt 1\nI 1 2 3 0\nI 1 2 -3 0\nU -1 -2 0\n"
      "D 1 2 0 1 0\nU -1 -2 0\n");
  EXPECT_FALSE(retired.ok);
  EXPECT_NE(retired.error.find("line 6: Unsat conclusion"), std::string::npos)
      << retired.error;
  EXPECT_EQ(retired.deletions, 1U);
  EXPECT_EQ(retired.unmatched_deletions, 0U);

  // Without the trailer the subset matches no clause: nothing is retired.
  const auto kept = check(
      "p aspmt 1\nI 1 2 3 0\nI 1 2 -3 0\nU -1 -2 0\n"
      "D 1 2 0\nU -1 -2 0\n");
  EXPECT_TRUE(kept.ok) << kept.error;
  EXPECT_EQ(kept.unmatched_deletions, 1U);
}

TEST(ProofChecker, DeletionIdsThatNameNoLiveClauseAreUnmatched) {
  // Unknown id, a second deletion of one clause, and a root fact (clause 3
  // acted once and stored nothing: matched, nothing to retire).
  const auto r = check(
      "p aspmt 1\nI 1 2 0\nI -1 2 0\nI 4 0\n"
      "D 1 2 0 9 0\nD 1 2 0 1 0\nD 1 2 0 1 0\nD 4 0 3 0\nU -2 0\n");
  EXPECT_FALSE(r.ok);  // clause 1 is gone, so -2 no longer refutes
  EXPECT_EQ(r.deletions, 4U);
  EXPECT_EQ(r.unmatched_deletions, 2U);
}

TEST(ProofChecker, MalformedDeletionIdsAreParseErrors) {
  for (const char* tail : {"D 1 2 0 x\n", "D 1 2 0 1\n", "D 1 2 0 0 0\n",
                           "D 1 2 0 1 0 7\n", "D 1 2 0 -1 0\n"}) {
    const auto r = check(std::string("p aspmt 1\nI 1 2 0\n") + tail);
    EXPECT_FALSE(r.ok) << tail;
    EXPECT_NE(r.error.find("line 3: malformed deletion id"), std::string::npos)
        << tail << ": " << r.error;
  }
}

TEST(ProofChecker, AHugeVariableIsRefusedNotAllocated) {
  // Sizing the per-variable arrays for variable 2e9 would need tens of
  // gigabytes; the proof's own length bounds the variables it may name.
  const auto r = check("p aspmt 1\nI 2000000000 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2: variable beyond the proof's size bound"),
            std::string::npos)
      << r.error;
  const auto decl = check("p aspmt 1\nS 0 1 2000000000 5\n");
  EXPECT_FALSE(decl.ok);
  EXPECT_NE(decl.error.find("line 2: malformed sum term"), std::string::npos)
      << decl.error;
}

TEST(ProofChecker, FloorDeclarationsAreCheckedWhereTheyAreRead) {
  // Primary sum 0 = 5*[1]; floor sum 1 = 5*[1] + 3*[2], where 2 is a
  // declared floor pair.  The energy binding folds max(sum 0, sum 1).
  const std::string sums = "p aspmt 1\nS 0 1 1 5\nS 1 2 1 5 2 3\n";
  const std::string fp = "FP 1 2 0 0 1\n";
  const std::string bind = "O 0 F 0 1 1\n";
  const auto ok = check(sums + fp + bind + "N 0\nN 1\nE 0 0 1 5 1 1\n" +
                        "FE 0 0 0 1\nF 1 8 0\nT DOM 1 8 ; -1 -2 0\n");
  ASSERT_TRUE(ok.ok) << ok.error;
  ASSERT_EQ(ok.floor_pairs.size(), 1U);
  EXPECT_EQ(ok.floor_pairs[0].weight, 3);
  EXPECT_EQ(ok.floor_pairs[0].dst_resource, 1);
  ASSERT_EQ(ok.floor_edges.size(), 1U);
  EXPECT_EQ(ok.floor_edges[0].weight, 5);

  const std::vector<std::pair<std::string, std::string>> bad = {
      // the floor reaches 8 only with literal 2
      {sums + fp + bind + "F 1 9 0\nT DOM 1 9 ; -1 -2 0\n",
       "line 7: theory lemma rejected: negated guards do not reach"},
      {sums + bind, "line 4: malformed objective binding: floor term is neither"},
      {"p aspmt 1\nS 0 1 1 5\nS 1 1 1 6\nO 0 F 0 1 1\n",
       "line 4: malformed objective binding: floor term is neither"},
      {sums + "FP 1 1 0 0 1\n" + bind,
       "line 5: malformed objective binding: floor pair literal is also"},
      {sums + "FP 1 3 0 0 1\n", "line 4: floor pair literal is not a term"},
      {sums + fp + fp, "line 5: floor pair declared twice"},
      {sums + "FP 7 2 0 0 1\n", "line 4: malformed floor pair"},
      {sums + "O 0 F 0 1 9\n",
       "line 4: malformed objective binding: unknown floor sum"},
      {"p aspmt 1\nN 0\nE 0 0 0 1 0\nFE 1 0 0 1\n",
       "line 4: malformed floor edge"},
      {"p aspmt 1\nN 0\nE 0 0 0 1 0\nFE 0 0 0 1\nFE 0 0 0 2\n",
       "line 5: floor edge declared twice"},
  };
  for (const auto& [proof, why] : bad) {
    const auto r = check(proof);
    EXPECT_FALSE(r.ok) << proof;
    EXPECT_NE(r.error.find(why), std::string::npos) << proof << r.error;
  }
}

TEST(ProofChecker, CountsPropagationsOfRupAndConclusionChecks) {
  // L 1: -1 is asserted and 2 propagated before (1 -2) conflicts.  The
  // conclusion's -1 is already false at root, so it assigns nothing.
  const auto r = check("p aspmt 1\nI 1 2 0\nI 1 -2 0\nL 1 0\nU -1 0\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.propagations, 2U);
  EXPECT_GE(r.rup_seconds, 0.0);
  EXPECT_EQ(r.theory_seconds, 0.0);
}

// ---- hinted learnt steps ------------------------------------------------------

TEST(ProofHints, HintedStepIsClosedByItsHints) {
  // Clause ids: 1 = (1 2), 2 = (1 -2).  L 1 asserts -1; hint 1 is then unit
  // on 2 and hint 2 is false: two assignments, no search.
  const auto r = check("p aspmt 1\nI 1 2 0\nI 1 -2 0\nL 1 0 1 2 0\nU -1 0\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.learnt_clauses, 1U);
  EXPECT_EQ(r.hinted_learnts, 1U);
  EXPECT_EQ(r.rup_fallbacks, 0U);
  EXPECT_EQ(r.propagations, 2U);
}

TEST(ProofHints, StepsWithoutHintsNeedFullRup) {
  for (const char* step : {"L 1 0\n", "L 1 0 0\n"}) {
    const auto r = check(std::string("p aspmt 1\nI 1 2 0\nI 1 -2 0\n") + step);
    ASSERT_TRUE(r.ok) << step << r.error;
    EXPECT_EQ(r.hinted_learnts, 0U) << step;
    EXPECT_EQ(r.rup_fallbacks, 1U) << step;
  }
}

TEST(ProofHints, WalkWithoutConflictFallsBackToRup) {
  // Hint 1 makes 2 true, but nothing conflicts: full RUP finds (1 -2).
  const auto r = check("p aspmt 1\nI 1 2 0\nI 1 -2 0\nL 1 0 1 0\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.hinted_learnts, 0U);
  EXPECT_EQ(r.rup_fallbacks, 1U);
}

TEST(ProofHints, UnusableHintsFallBackToRup) {
  // Ids 1 = (1 2), 2 = (1 -2), 3 = (3 4 5), 4 = (-1 6); the learnt step is
  // id 5.  Every hint list below fails the walk somewhere; the clause is
  // RUP all the same.
  const std::string base =
      "p aspmt 1\nI 1 2 0\nI 1 -2 0\nI 3 4 5 0\nI -1 6 0\n";
  for (const char* hints : {"-1 2", "1 -2", "5 2", "1 6", "1 4294967298",
                            "1 9223372036854775807", "3 1 2", "4 1 2", "1 1 2"}) {
    const auto r = check(base + "L 1 0 " + hints + " 0\n");
    ASSERT_TRUE(r.ok) << hints << ": " << r.error;
    EXPECT_EQ(r.hinted_learnts, 0U) << hints;
    EXPECT_EQ(r.rup_fallbacks, 1U) << hints;
  }
}

TEST(ProofHints, ForgedHintsCannotAdmitANonRupClause) {
  const std::string base = "p aspmt 1\nI 1 2 0\nI 1 -2 0\n";
  // (3) is no consequence of the two input clauses, whatever it cites.
  for (const char* hints : {"1 2", "2 1", "2", "1 2 3", "3"}) {
    const auto r = check(base + "L 3 0 " + hints + " 0\n");
    EXPECT_FALSE(r.ok) << hints;
    EXPECT_NE(r.error.find("line 4: learnt clause is not RUP"), std::string::npos)
        << hints << ": " << r.error;
  }
  // Hint 1 is not unit under -3 (both 1 and 2 are open); a walk that
  // assigned one of them anyway would reach a conflict on hint 2.
  const auto open = check("p aspmt 1\nI 1 2 0\nI -1 3 0\nL 3 0 1 2 0\n");
  EXPECT_FALSE(open.ok);
  EXPECT_NE(open.error.find("line 4: learnt clause is not RUP"), std::string::npos)
      << open.error;
  // A deleted clause is out of the database even when a hint names it.
  const auto deleted = check(base + "D 1 -2 0\nL 1 0 1 2 0\n");
  EXPECT_FALSE(deleted.ok);
  EXPECT_NE(deleted.error.find("line 5: learnt clause is not RUP"),
            std::string::npos)
      << deleted.error;
}

TEST(ProofHints, ADeletedCopyIsStandedInForByItsLiveTwin) {
  // Ids 2 and 3 are the same clause; the D step retires one copy (3) and
  // the walk uses the live one (2) in its place.
  const auto r = check(
      "p aspmt 1\nI 1 2 0\nI 1 -2 0\nI 1 -2 0\nD 1 -2 0\nL 1 0 1 3 0\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.hinted_learnts, 1U);
  EXPECT_EQ(r.rup_fallbacks, 0U);
}

TEST(ProofHints, MalformedHintListsAreLineNumberedParseErrors) {
  const std::string base = "p aspmt 1\nI 1 2 0\nI 1 -2 0\n";
  const auto word = check(base + "L 1 0 1 x 0\n");
  EXPECT_FALSE(word.ok);
  EXPECT_NE(word.error.find("line 4: malformed hint"), std::string::npos)
      << word.error;
  const auto huge = check(base + "L 1 0 99999999999999999999 0\n");
  EXPECT_FALSE(huge.ok);
  EXPECT_NE(huge.error.find("line 4: malformed hint"), std::string::npos)
      << huge.error;
  const auto open = check(base + "L 1 0 1 2\n");
  EXPECT_FALSE(open.ok);
  EXPECT_NE(open.error.find("line 4: unterminated hint list"), std::string::npos)
      << open.error;
}

TEST(ProofHints, TheoryTimeIsSplitByTag) {
  // One LS lemma (see VerifiesLinearSumLemma): its time lands in the LS slot.
  const auto r = check(
      "p aspmt 1\nS 0 2 1 5 2 7\nSB 0 6 0\nT LS 0 6 0 ; -1 -2 0\n");
  ASSERT_TRUE(r.ok) << r.error;
  double split = 0.0;
  for (const double t : r.theory_tag_seconds) split += t;
  EXPECT_DOUBLE_EQ(split, r.theory_seconds);
  for (std::size_t i = 1; i < cert::kTheoryTags.size(); ++i) {
    EXPECT_EQ(r.theory_tag_seconds[i], 0.0) << cert::kTheoryTags[i];
  }
  EXPECT_EQ(cert::kTheoryTags[0], "LS");
}

// A real explorer proof with deletions: a small learnt-database cap makes
// the solver reduce (and log `D` steps) many times.  mesh_chain, because
// with objective floors on mesh_small needs fewer than 50 learnt steps.
std::string proof_with_deletions() {
  const synth::Specification spec = synth::load_specification(
      std::string(ASPMT_TEST_DATA_DIR) + "/examples/specs/mesh_chain.txt");
  dse::ExploreOptions opts;
  opts.common.certify = true;
  opts.common.solver_options.learnt_start = 40;
  const dse::ExploreResult r = dse::explore(spec, opts);
  EXPECT_TRUE(r.certified) << r.certificate_error;
  return r.proof;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::int64_t> tokens(const std::string& text) {
  std::vector<std::int64_t> out;
  std::istringstream in(text);
  std::int64_t v = 0;
  while (in >> v) out.push_back(v);
  return out;
}

/// A learnt line split at the clause's terminating 0.
struct LearntLine {
  std::string clause;              // "L <lits> 0"
  std::vector<std::int64_t> hints;
};

LearntLine split_learnt(const std::string& line) {
  const std::size_t end = test::clause_end(line);
  LearntLine out{line.substr(0, end), {}};
  out.hints = tokens(line.substr(end));
  if (!out.hints.empty()) out.hints.pop_back();  // the list's own 0
  return out;
}

std::string join_learnt(const LearntLine& l) {
  std::string out = l.clause;
  for (const std::int64_t h : l.hints) out += " " + std::to_string(h);
  return l.hints.empty() ? out : out + " 0";
}

/// Rewrite every hinted learnt step with `mutate(hints, own_id, deleted)`:
/// own_id is the step's clause id, deleted the id of the latest clause a D
/// step has retired by then (0: none yet).
std::string mutate_hints(
    const std::string& proof,
    const std::function<void(std::vector<std::int64_t>&, std::int64_t,
                             std::int64_t)>& mutate) {
  std::string out;
  std::int64_t id = 0;
  std::int64_t deleted = 0;
  std::map<std::vector<std::int64_t>, std::vector<std::int64_t>> learnt_ids;
  for (const std::string& line : split_lines(proof)) {
    const std::string kind = line.substr(0, line.find(' '));
    std::string text = line;
    if (kind == "I" || kind == "G" || kind == "T") ++id;
    if (kind == "L") {
      ++id;
      LearntLine l = split_learnt(line);
      std::vector<std::int64_t> key = tokens(l.clause.substr(1));
      std::sort(key.begin(), key.end());
      learnt_ids[key].push_back(id);
      if (!l.hints.empty()) {
        mutate(l.hints, id, deleted);
        text = join_learnt(l);
      }
    }
    if (kind == "D") {
      const std::size_t end = test::clause_end(line);
      const std::vector<std::int64_t> trailer = tokens(line.substr(end));
      std::vector<std::int64_t> key = tokens(line.substr(1, end - 1));
      std::sort(key.begin(), key.end());
      auto it = learnt_ids.find(key);
      if (!trailer.empty()) {
        deleted = trailer.front();  // the id trailer names the clause
      } else if (it != learnt_ids.end() && !it->second.empty()) {
        deleted = it->second.back();
        it->second.pop_back();
      }
    }
    out += text + "\n";
  }
  return out;
}

/// Same verdict, same error, same counts as the stripped proof.
void expect_verdict_of_stripped(const std::string& proof, const std::string& what) {
  const cert::CheckResult hinted = check(proof, true);
  const cert::CheckResult stripped = check(test::strip_hints(proof), true);
  EXPECT_EQ(hinted.ok, stripped.ok) << what << ": " << hinted.error;
  EXPECT_EQ(hinted.error, stripped.error) << what;
  EXPECT_EQ(test::step_counts(hinted), test::step_counts(stripped)) << what;
}

TEST(ProofHints, AdversarialHintsNeverChangeAVerdict) {
  const std::string proof = proof_with_deletions();
  const cert::CheckResult pristine = check(proof, true);
  ASSERT_TRUE(pristine.ok) << pristine.error;
  ASSERT_GT(pristine.deletions, 0U);
  EXPECT_EQ(pristine.unmatched_deletions, 0U);
  ASSERT_GT(pristine.learnt_clauses, 50U);
  EXPECT_EQ(pristine.rup_fallbacks, 0U);

  using Hints = std::vector<std::int64_t>;
  const std::vector<std::pair<std::string,
                              std::function<void(Hints&, std::int64_t, std::int64_t)>>>
      mutations = {
          {"dropped first", [](Hints& h, auto, auto) { h.erase(h.begin()); }},
          {"dropped last", [](Hints& h, auto, auto) { h.pop_back(); }},
          {"reordered", [](Hints& h, auto, auto) { std::reverse(h.begin(), h.end()); }},
          {"out of range", [](Hints& h, auto, auto) { h.front() += 4294967296LL; }},
          {"negative", [](Hints& h, auto, auto) { h.front() = -h.front(); }},
          {"own id", [](Hints& h, std::int64_t own, auto) { h.back() = own; }},
          {"future", [](Hints& h, std::int64_t own, auto) { h.front() = own + 1; }},
          {"deleted",
           [](Hints& h, auto, std::int64_t deleted) {
             if (deleted != 0) h.front() = deleted;
           }},
      };
  for (const auto& [name, mutate] : mutations) {
    const std::string mutated = mutate_hints(proof, mutate);
    expect_verdict_of_stripped(mutated, name);
    // The mutation reached the walk: some steps had to fall back.
    EXPECT_GT(check(mutated, true).rup_fallbacks, 0U) << name;
  }
}

TEST(ProofHints, ANonRupClauseWithRealHintsIsRejected) {
  // Negate one literal of a hinted learnt clause and keep its hints: the
  // walk no longer closes, and RUP rejects the clause as it would without.
  const std::string proof = proof_with_deletions();
  std::vector<std::string> lines = split_lines(proof);
  std::size_t forged = 0;
  for (std::string& line : lines) {
    if (line.rfind("L ", 0) != 0) continue;
    LearntLine l = split_learnt(line);
    std::vector<std::int64_t> lits = tokens(l.clause.substr(1));
    lits.pop_back();
    if (l.hints.empty() || lits.size() < 2) continue;
    lits[0] = -lits[0];
    std::string clause = "L";
    for (const std::int64_t x : lits) clause += " " + std::to_string(x);
    l.clause = clause + " 0";
    const std::string original = line;
    line = join_learnt(l);
    std::string text;
    for (const std::string& s : lines) text += s + "\n";
    const cert::CheckResult r = check(text, true);
    expect_verdict_of_stripped(text, "forged: " + line);
    line = original;
    if (!r.ok) {
      EXPECT_NE(r.error.find("learnt clause is not RUP"), std::string::npos)
          << r.error;
      if (++forged == 3) break;
    }
  }
  EXPECT_EQ(forged, 3U) << "no forged clause was rejected";
}

// ---- mutations of a real explorer proof -----------------------------------

std::string real_proof() {
  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(test::chain3_bus(), opts);
  EXPECT_TRUE(r.certified) << r.certificate_error;
  EXPECT_FALSE(r.proof.empty());
  return r.proof;
}

TEST(ProofMutation, PristineProofVerifies) {
  const auto r = check(real_proof(), true);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.theory_lemmas, 0U);
  EXPECT_GT(r.learnt_clauses, 0U);
  EXPECT_EQ(r.hinted_learnts, r.learnt_clauses);
  EXPECT_EQ(r.rup_fallbacks, 0U);
}

TEST(ProofMutation, BogusLearntClauseRejected) {
  std::string proof = real_proof();
  // A fresh-variable unit clause right after the header can never be RUP.
  const std::size_t header_end = proof.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  proof.insert(header_end + 1, "L 999999 0\n");
  const auto r = check(proof, true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not RUP"), std::string::npos) << r.error;
}

TEST(ProofMutation, DroppedConclusionRejected) {
  std::string proof = real_proof();
  // Remove the global "U 0" conclusion line(s).
  std::string out;
  std::size_t pos = 0;
  while (pos < proof.size()) {
    const std::size_t eol = proof.find('\n', pos);
    const std::string line = proof.substr(pos, eol - pos);
    if (line != "U 0") out += line + "\n";
    pos = eol == std::string::npos ? proof.size() : eol + 1;
  }
  const auto r = check(out, true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("never concludes"), std::string::npos) << r.error;
}

TEST(ProofMutation, UnknownTheoryTagRejected) {
  std::string proof = real_proof();
  const std::size_t pos = proof.find("\nT ");
  ASSERT_NE(pos, std::string::npos) << "proof has no theory lemma";
  proof.replace(pos, 3, "\nT ZZ");  // "T <tag>" -> "T ZZ<tag>"
  EXPECT_FALSE(check(proof, true).ok);
}

TEST(ProofMutation, TamperedSumBoundRejected) {
  std::string proof = real_proof();
  const std::size_t pos = proof.find("\nT LS ");
  ASSERT_NE(pos, std::string::npos) << "proof has no linear-sum lemma";
  // Bump the cited bound far past anything declared.
  std::size_t tok = pos + 6;                      // after "\nT LS "
  tok = proof.find(' ', tok);                     // skip sum id
  ASSERT_NE(tok, std::string::npos);
  const std::size_t bound_end = proof.find(' ', tok + 1);
  ASSERT_NE(bound_end, std::string::npos);
  proof.replace(tok + 1, bound_end - tok - 1, "1000001");
  const auto r = check(proof, true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("theory lemma rejected"), std::string::npos)
      << r.error;
}

// ---- objective floors ------------------------------------------------------

const synth::Specification& floored_spec() {
  static const synth::Specification spec = synth::load_specification(
      std::string(ASPMT_TEST_DATA_DIR) + "/examples/specs/mesh_small.txt");
  return spec;
}

/// A certified mesh run, where binding-pair floors fire.
const std::string& floored_proof() {
  static const std::string proof = [] {
    dse::ExploreOptions opts;
    opts.common.certify = true;
    const dse::ExploreResult r = dse::explore(floored_spec(), opts);
    EXPECT_TRUE(r.certified) << r.certificate_error;
    return r.proof;
  }();
  return proof;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// Index of the first line starting with `prefix`.
std::size_t find_line(const std::vector<std::string>& lines,
                      const std::string& prefix) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind(prefix, 0) == 0) return i;
  }
  ADD_FAILURE() << "no line starts with '" << prefix << "'";
  return 0;
}

/// The proof verifies, and its floor claims are refused with `why`.
void expect_claims_refused(const std::string& proof, const std::string& why) {
  const cert::CheckResult r = check(proof, true);
  ASSERT_TRUE(r.ok) << r.error;
  const std::string error = cert::check_floor_claims(floored_spec(), r);
  EXPECT_NE(error.find(why), std::string::npos) << error;
}

/// Add `delta` to the weight of literal `lit` in the `S <sum>` line.
void bump_sum_weight(std::vector<std::string>& lines, std::int64_t sum,
                     std::int64_t lit, std::int64_t delta) {
  std::string& line = lines[find_line(lines, "S " + std::to_string(sum) + " ")];
  std::vector<std::int64_t> t = tokens(line.substr(2));
  for (std::size_t i = 2; i + 1 < t.size(); i += 2) {
    if (t[i] == lit) {
      t[i + 1] += delta;
      break;
    }
  }
  line = "S";
  for (const std::int64_t v : t) line += " " + std::to_string(v);
}

TEST(ObjectiveFloors, CertifiedProofDeclaresFloorsThatTheSpecBacks) {
  const cert::CheckResult r = check(floored_proof(), true);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.floor_pairs.size(), 0U);
  EXPECT_GT(r.floor_edges.size(), 0U);
  EXPECT_EQ(cert::check_floor_claims(floored_spec(), r), "");
  EXPECT_NE(floored_proof().find("\nO 1 F "), std::string::npos)
      << "the energy axis binds its floor sum";
}

TEST(ObjectiveFloors, RaisedFloorPairWeightIsRefused) {
  std::vector<std::string> lines = split_lines(floored_proof());
  const std::vector<std::int64_t> fp =
      tokens(lines[find_line(lines, "FP ")].substr(3));
  bump_sum_weight(lines, fp[0], fp[1], 1);
  expect_claims_refused(join_lines(lines), "above the message's cheapest");
}

TEST(ObjectiveFloors, RaisedFloorEdgeWeightIsRefused) {
  std::vector<std::string> lines = split_lines(floored_proof());
  const std::int64_t edge = tokens(lines[find_line(lines, "FE ")].substr(3))[0];
  std::string& line = lines[find_line(lines, "E " + std::to_string(edge) + " ")];
  std::vector<std::int64_t> t = tokens(line.substr(2));
  t[3] += 1;  // <edge> <from> <to> <w> ...
  line = "E";
  for (const std::int64_t v : t) line += " " + std::to_string(v);
  expect_claims_refused(join_lines(lines), "above the source WCET");
}

TEST(ObjectiveFloors, AnUnclaimedFloorEdgeIsRefused) {
  std::vector<std::string> lines = split_lines(floored_proof());
  const auto fe = static_cast<std::ptrdiff_t>(find_line(lines, "FE "));
  lines.erase(lines.begin() + fe);
  expect_claims_refused(join_lines(lines), "has no claim");
}

TEST(ObjectiveFloors, AFloorTermWithoutPrimaryTermOrClaimIsRefused) {
  // Dropping an FP declaration leaves its copair term unaccounted for.
  std::vector<std::string> lines = split_lines(floored_proof());
  const std::size_t fp = find_line(lines, "FP ");
  std::vector<std::string> unclaimed = lines;
  unclaimed.erase(unclaimed.begin() + static_cast<std::ptrdiff_t>(fp));
  const cert::CheckResult r = check(join_lines(unclaimed), true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("floor term is neither a primary term"),
            std::string::npos)
      << r.error;

  // A task term heavier in the floor sum than in the primary sum.
  const std::int64_t floor_sum = tokens(lines[fp].substr(3))[0];
  const std::string& floor_line =
      lines[find_line(lines, "S " + std::to_string(floor_sum) + " ")];
  const std::vector<std::int64_t> t = tokens(floor_line.substr(2));
  std::int64_t task_lit = 0;
  for (std::size_t i = 2; i + 1 < t.size() && task_lit == 0; i += 2) {
    if (floored_proof().find("FP " + std::to_string(floor_sum) + " " +
                             std::to_string(t[i]) + " ") == std::string::npos) {
      task_lit = t[i];
    }
  }
  ASSERT_NE(task_lit, 0);
  bump_sum_weight(lines, floor_sum, task_lit, 1);
  const cert::CheckResult heavier = check(join_lines(lines), true);
  EXPECT_FALSE(heavier.ok);
  EXPECT_NE(heavier.error.find("floor term is neither a primary term"),
            std::string::npos)
      << heavier.error;
}

TEST(ObjectiveFloors, AFloorCitingDominanceLemmaMissingALiteralIsRefused) {
  const std::vector<std::string> lines = split_lines(floored_proof());
  std::vector<std::int64_t> pair_lits;
  for (const std::string& l : lines) {
    if (l.rfind("FP ", 0) == 0) pair_lits.push_back(tokens(l.substr(3))[1]);
  }
  std::size_t cited = 0;
  std::size_t refused = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("T DOM ", 0) != 0) continue;
    const std::size_t semi = lines[i].find(';');
    std::vector<std::int64_t> lits = tokens(lines[i].substr(semi + 1));
    lits.pop_back();  // the terminating 0
    for (const std::int64_t p : pair_lits) {
      const auto it = std::find(lits.begin(), lits.end(), -p);
      if (it == lits.end()) continue;
      ++cited;
      std::vector<std::int64_t> fewer = lits;
      fewer.erase(fewer.begin() + (it - lits.begin()));
      std::string lemma = lines[i].substr(0, semi + 1);
      for (const std::int64_t l : fewer) lemma += " " + std::to_string(l);
      std::vector<std::string> mutated = lines;
      mutated[i] = lemma + " 0";
      const cert::CheckResult r = check(join_lines(mutated), true);
      if (r.ok) continue;  // the lemma had slack: the rest still reaches
      ++refused;
      EXPECT_NE(r.error.find("do not reach the dominance threshold"),
                std::string::npos)
          << r.error;
    }
  }
  EXPECT_GT(cited, 0U) << "no dominance lemma cites a floor pair";
  EXPECT_GT(refused, 0U) << "no floor-citing lemma needed its floor literal";
}

// ---- certify_front end-to-end ----------------------------------------------

TEST(CertifyFront, SingletonRoundTrips) {
  const synth::Specification spec = test::singleton();
  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(spec, opts);
  ASSERT_TRUE(r.certified) << r.certificate_error;
  ASSERT_EQ(r.front.size(), 1U);
  ASSERT_EQ(r.witnesses.size(), 1U);

  std::vector<std::pair<pareto::Vec, synth::Implementation>> pairs;
  pairs.emplace_back(r.front[0], r.witnesses[0]);

  const auto ok = cert::certify_front(spec, pairs, r.front, r.proof);
  EXPECT_TRUE(ok.certified) << ok.error;
  EXPECT_EQ(ok.witnesses_validated, 1U);

  // An extra fabricated front point must be caught even though the proof
  // and the witnesses are untouched.
  std::vector<pareto::Vec> padded = r.front;
  padded.push_back({0, 0, 0});
  const auto extra = cert::certify_front(spec, pairs, padded, r.proof);
  EXPECT_FALSE(extra.certified);

  // A discovery whose recorded objectives disagree with its witness is the
  // witness-forgery case.
  auto forged = pairs;
  forged[0].first[0] += 1;
  const auto forgery = cert::certify_front(spec, forged, r.front, r.proof);
  EXPECT_FALSE(forgery.certified);
  EXPECT_NE(forgery.error.find("disagree"), std::string::npos) << forgery.error;

  // And an empty proof certifies nothing.
  const auto empty = cert::certify_front(spec, pairs, r.front, "");
  EXPECT_FALSE(empty.certified);
}

TEST(CertifyFront, WrongArityPointsAreRefused) {
  const synth::Specification spec = test::singleton();
  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(spec, opts);
  ASSERT_TRUE(r.certified) << r.certificate_error;
  ASSERT_EQ(r.front.size(), 1U);
  std::vector<std::pair<pareto::Vec, synth::Implementation>> pairs;
  pairs.emplace_back(r.front[0], r.witnesses[0]);

  std::vector<pareto::Vec> long_front = r.front;
  long_front[0].push_back(0);
  const auto front = cert::certify_front(spec, pairs, long_front, r.proof);
  EXPECT_FALSE(front.certified);
  EXPECT_NE(front.error.find("arity mismatch: front point"), std::string::npos)
      << front.error;

  auto short_pairs = pairs;
  short_pairs[0].first.pop_back();
  const auto discovery = cert::certify_front(spec, short_pairs, r.front, r.proof);
  EXPECT_FALSE(discovery.certified);
  EXPECT_NE(discovery.error.find("arity mismatch: discovery"), std::string::npos)
      << discovery.error;
}

}  // namespace
}  // namespace aspmt
