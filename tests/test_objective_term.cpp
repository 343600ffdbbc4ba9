// The ObjectiveTerm tree API: factory validation, proof-binding
// serialization, combinator lower-bound semantics on total assignments,
// explanation contracts (minimal weighted explanations, throws on an
// unreachable threshold), the tagged Source variant, the linear-only
// add_lower_bound contract, and the weighted residual bound that implies
// guards through checkable CB lemmas.
#include "dse/objective_term.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "asp/proof.hpp"
#include "asp/solver.hpp"
#include "cert/checker.hpp"
#include "dse/combinator_bounds.hpp"
#include "dse/objective_manager.hpp"
#include "synth/objective_expr.hpp"
#include "theory/difference.hpp"
#include "theory/linear_sum.hpp"

namespace aspmt::dse {
namespace {

using asp::Lit;
using asp::Solver;
using asp::Var;

Lit L(Var v, bool s = true) { return Lit::make(v, s); }

/// Solver + linear propagator with two guarded sums:
///   s0 = 5*[v0] + 3*[v1]     s1 = 7*[v2] + 2*[v3]
struct Fixture {
  Solver solver;
  theory::LinearSumPropagator linear;
  theory::DifferencePropagator difference;
  std::vector<Var> vars;
  theory::LinearSumPropagator::SumId s0, s1;

  Fixture() {
    for (int i = 0; i < 4; ++i) vars.push_back(solver.new_var());
    solver.add_propagator(&linear);
    solver.add_propagator(&difference);
    s0 = linear.add_sum("s0", {{L(vars[0]), 5}, {L(vars[1]), 3}});
    s1 = linear.add_sum("s1", {{L(vars[2]), 7}, {L(vars[3]), 2}});
  }

  /// Force every guard and solve, so leaf bounds are exact totals:
  /// s0 = 8, s1 = 9.
  void fix_all() {
    for (const Var v : vars) ASSERT_TRUE(solver.add_clause({L(v)}));
    ASSERT_EQ(solver.solve(), Solver::Result::Sat);
  }
};

// ---- factory validation -----------------------------------------------------

TEST(ObjectiveTermFactories, LexRejectsBadShapes) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  // Arity mismatch between caps and children.
  EXPECT_THROW(ObjectiveTerm::lex("x", {10}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  // Fewer than two children.
  std::vector<ObjectiveTerm> one;
  one.push_back(leaf(f.s0));
  EXPECT_THROW(ObjectiveTerm::lex("x", {10}, std::move(one)),
               std::invalid_argument);
  // Negative cap.
  EXPECT_THROW(ObjectiveTerm::lex("x", {-1, 5}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  // Cap radix product overflows int64.
  const std::int64_t half = std::int64_t{1} << 33;
  EXPECT_THROW(ObjectiveTerm::lex("x", {half, half}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
}

TEST(ObjectiveTermFactories, WeightedAndFanoutCombinatorsRejectBadShapes) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  EXPECT_THROW(ObjectiveTerm::weighted("w", {2}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  EXPECT_THROW(ObjectiveTerm::weighted("w", {0, 1}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  std::vector<ObjectiveTerm> one;
  one.push_back(leaf(f.s0));
  EXPECT_THROW(ObjectiveTerm::minmax("m", std::move(one)),
               std::invalid_argument);
  std::vector<ObjectiveTerm> again;
  again.push_back(leaf(f.s0));
  EXPECT_THROW(ObjectiveTerm::scenario_worst("v", std::move(again)),
               std::invalid_argument);
}

TEST(ObjectiveTermFactories, FloorsAttachOnlyAtLinearLeaves) {
  Fixture f;
  ObjectiveTerm leaf = ObjectiveTerm::linear("l", &f.linear, f.s0);
  leaf.with_floor(&f.linear, f.s1);  // fine
  ObjectiveTerm comb = ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)});
  EXPECT_THROW(comb.with_floor(&f.linear, f.s1), std::invalid_argument);
  const auto node = f.difference.new_node("mk");
  ObjectiveTerm mk = ObjectiveTerm::makespan("mk", &f.difference, node);
  EXPECT_THROW(mk.with_floor(&f.linear, f.s1), std::invalid_argument);
}

// ---- proof-binding serialization -------------------------------------------

TEST(ObjectiveTermSerialize, LeavesMatchTheLegacyBindingBodies) {
  Fixture f;
  std::string out;
  ObjectiveTerm::linear("e", &f.linear, f.s1).serialize(out);
  EXPECT_EQ(out, "L 1");
  out.clear();
  const auto node = f.difference.new_node("mk");
  ObjectiveTerm::makespan("mk", &f.difference, node).serialize(out);
  EXPECT_EQ(out, "D 0");
}

TEST(ObjectiveTermSerialize, AFlooredLeafListsItsFloorSums) {
  Fixture f;
  std::string out;
  ObjectiveTerm::linear("e", &f.linear, f.s1)
      .with_floor(&f.linear, f.s0)
      .serialize(out);
  EXPECT_EQ(out, "F 1 1 0");
  out.clear();
  // Inside a combinator the floored leaf is one term like any other.
  ObjectiveTerm floored = ObjectiveTerm::linear("e", &f.linear, f.s1);
  floored.with_floor(&f.linear, f.s0);
  ObjectiveTerm::minmax("m", {ObjectiveTerm::linear("c", &f.linear, f.s0),
                              std::move(floored)})
      .serialize(out);
  EXPECT_EQ(out, "M 2 L 0 F 1 1 0");
}

TEST(ObjectiveTermSerialize, CombinatorsEmitTheTreeGrammar) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  std::string out;
  ObjectiveTerm::lex("x", {10, 20}, {leaf(f.s0), leaf(f.s1)}).serialize(out);
  EXPECT_EQ(out, "X 2 10 20 L 0 L 1");
  out.clear();
  ObjectiveTerm::minmax("m", {leaf(f.s0), leaf(f.s1)}).serialize(out);
  EXPECT_EQ(out, "M 2 L 0 L 1");
  out.clear();
  ObjectiveTerm::weighted("w", {2, 3}, {leaf(f.s0), leaf(f.s1)}).serialize(out);
  EXPECT_EQ(out, "W 2 2 3 L 0 L 1");
  out.clear();
  ObjectiveTerm::scenario_worst("v", {leaf(f.s0), leaf(f.s1)}).serialize(out);
  EXPECT_EQ(out, "V 2 L 0 L 1");
  out.clear();
  // Nesting recurses: lex over (minmax, leaf).
  ObjectiveTerm::lex("x", {30, 9},
                     {ObjectiveTerm::minmax("m", {leaf(f.s0), leaf(f.s1)}),
                      leaf(f.s0)})
      .serialize(out);
  EXPECT_EQ(out, "X 2 30 9 M 2 L 0 L 1 L 0");
}

// ---- combinator semantics on total assignments ------------------------------

TEST(ObjectiveTermSemantics, CombinatorsFoldExactValuesAtTotalAssignments) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  const ObjectiveTerm mm = ObjectiveTerm::minmax("m", {leaf(f.s0), leaf(f.s1)});
  const ObjectiveTerm w =
      ObjectiveTerm::weighted("w", {2, 3}, {leaf(f.s0), leaf(f.s1)});
  const ObjectiveTerm x =
      ObjectiveTerm::lex("x", {10, 20}, {leaf(f.s0), leaf(f.s1)});
  const ObjectiveTerm v =
      ObjectiveTerm::scenario_worst("v", {leaf(f.s0), leaf(f.s1)});
  f.fix_all();  // s0 = 8, s1 = 9
  EXPECT_EQ(mm.lower_bound(), 9);
  EXPECT_EQ(w.lower_bound(), 2 * 8 + 3 * 9);
  EXPECT_EQ(x.lower_bound(), 8 * 21 + 9);  // big-endian, radix cap+1
  EXPECT_EQ(v.lower_bound(), 9);
}

TEST(ObjectiveTermSemantics, LexClampsChildrenToTheirCaps) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  // Cap 6 < s0's total 8: the head child saturates at 6.
  const ObjectiveTerm x =
      ObjectiveTerm::lex("x", {6, 20}, {leaf(f.s0), leaf(f.s1)});
  f.fix_all();
  EXPECT_EQ(x.lower_bound(), 6 * 21 + 9);
}

TEST(ObjectiveTermSemantics, LexBoundMatchesSynthLexPackInEveryClampRegime) {
  // lower_bound() packs a lex node in place; it must agree exactly with
  // synth::lex_pack, the packing the validator evaluates, whether the
  // children clamp at their caps or not.
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  const std::vector<std::vector<std::int64_t>> caps = {
      {0, 0}, {0, 20}, {6, 20}, {8, 9}, {7, 8}, {10, 3}, {1000, 1000000}};
  std::vector<ObjectiveTerm> terms;
  for (const auto& c : caps) {
    terms.push_back(ObjectiveTerm::lex("x", c, {leaf(f.s0), leaf(f.s1)}));
  }
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_EQ(terms[i].lower_bound(), synth::lex_pack({0, 0}, caps[i]));
  }
  f.fix_all();  // s0 = 8, s1 = 9
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_EQ(terms[i].lower_bound(), synth::lex_pack({8, 9}, caps[i]))
        << "caps " << caps[i][0] << "," << caps[i][1];
  }
}

TEST(ObjectiveTermSemantics, ExplanationsJustifyTheThresholdByChildRecursion) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  const ObjectiveTerm x =
      ObjectiveTerm::lex("x", {10, 20}, {leaf(f.s0), leaf(f.s1)});
  f.fix_all();
  std::vector<Lit> reason;
  x.explain(x.lower_bound(), reason);
  EXPECT_FALSE(reason.empty());
  // Every cited literal must actually be assigned true.
  for (const Lit l : reason) {
    EXPECT_EQ(f.solver.value(l), asp::Lbool::True);
  }
}

TEST(ObjectiveTermSemantics, WeightedExplanationStopsAtTheThreshold) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  // 2*s0 + 3*s1 with s0 = 8 (v0:5, v1:3) and s1 = 9 (v2:7, v3:2): the
  // contributions are 16 and 27, the largest explained last.
  const ObjectiveTerm w =
      ObjectiveTerm::weighted("w", {2, 3}, {leaf(f.s0), leaf(f.s1)});
  f.fix_all();
  std::vector<Lit> reason;
  w.explain(10, reason);  // s0 at ⌈10/2⌉ = 5: v0 alone
  EXPECT_EQ(reason, (std::vector<Lit>{L(f.vars[0])}));
  reason.clear();
  w.explain(17, reason);  // s0 in full (16), then s1 at ⌈1/3⌉ = 1: v2
  EXPECT_EQ(reason,
            (std::vector<Lit>{L(f.vars[0]), L(f.vars[1]), L(f.vars[2])}));
  reason.clear();
  w.explain(43, reason);  // everything
  EXPECT_EQ(reason.size(), 4U);
}

TEST(ObjectiveTermSemantics, UnreachableThresholdsThrowInEveryBuild) {
  // Nothing is assigned: every bound is 0, so no threshold >= 1 can be
  // explained.  A short explanation would be negated into a nogood
  // stronger than its justification; the contract must not depend on
  // assert().
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  std::vector<Lit> out;
  EXPECT_THROW(f.linear.explain_lower_bound(f.s0, 1, out), std::logic_error);
  EXPECT_THROW(leaf(f.s0).explain(1, out), std::logic_error);
  EXPECT_THROW(ObjectiveTerm::minmax("m", {leaf(f.s0), leaf(f.s1)}).explain(1, out),
               std::logic_error);
  EXPECT_THROW(
      ObjectiveTerm::weighted("w", {2, 3}, {leaf(f.s0), leaf(f.s1)}).explain(1, out),
      std::logic_error);
  EXPECT_TRUE(out.empty());
  // Threshold 0 needs no literals.
  leaf(f.s0).explain(0, out);
  EXPECT_TRUE(out.empty());
}

// ---- the weighted residual bound --------------------------------------------

/// A proof-logged weighted axis 2*s0 + 1*s1 over
///   s0 = 5*[v0] + 3*[v1]     s1 = 7*[v2] + 2*[v3]
/// bounded by `axis <= 14`.
struct ResidualFixture {
  asp::ProofLog proof;
  Solver solver;
  theory::LinearSumPropagator linear;
  ObjectiveManager objectives;
  CombinatorBoundPropagator residual{objectives};
  std::vector<Var> vars;

  ResidualFixture() {
    solver.set_proof(&proof);
    linear.set_proof(&proof);
    residual.set_proof(&proof);
    for (int i = 0; i < 4; ++i) vars.push_back(solver.new_var());
    solver.add_propagator(&linear);
    solver.add_propagator(&residual);
    const auto s0 = linear.add_sum("s0", {{L(vars[0]), 5}, {L(vars[1]), 3}});
    const auto s1 = linear.add_sum("s1", {{L(vars[2]), 7}, {L(vars[3]), 2}});
    objectives.attach_combinator_bounds(&residual);
    objectives.add(ObjectiveTerm::weighted(
        "w", {2, 1},
        {ObjectiveTerm::linear("a", &linear, s0),
         ObjectiveTerm::linear("b", &linear, s1)}));
    std::string tokens;
    objectives.term(0).serialize(tokens);
    proof.def_objective_term(0, tokens);
    objectives.add_bound(0, 14);  // pushes s0 <= 7, s1 <= 14 + the residual
  }

  /// The proof's CB lemma lines.
  [[nodiscard]] std::vector<std::string> cb_lemmas() const {
    std::vector<std::string> lines;
    std::size_t pos = 0;
    const std::string& text = proof.text();
    while ((pos = text.find("T CB ", pos)) != std::string::npos) {
      const std::size_t eol = text.find('\n', pos);
      lines.push_back(text.substr(pos, eol - pos));
      pos = eol;
    }
    return lines;
  }
};

TEST(WeightedResidual, ImpliesAGuardFalseThroughACheckableLemma) {
  ResidualFixture f;
  // v2 true puts s1 at 7, so s0 must stay <= ⌊(14 - 7) / 2⌋ = 3: v0 (5)
  // cannot hold.  Neither pushed leaf bound sees it (s0 <= 7 admits v0
  // alone), so only the residual bound can set v0 false, before any
  // decision and without a conflict.
  const std::vector<Lit> assume{L(f.vars[2])};
  ASSERT_EQ(f.solver.solve(assume), Solver::Result::Sat);
  EXPECT_EQ(asp::lit_value(f.solver.model()[f.vars[0]], L(f.vars[0])),
            asp::Lbool::False);
  EXPECT_GE(f.residual.implications(), 1U);
  EXPECT_EQ(f.residual.conflicts(), 0U);

  // The implication is the CB lemma {-v2, -v0} over the declared bound.
  const std::vector<std::string> lemmas = f.cb_lemmas();
  ASSERT_FALSE(lemmas.empty()) << f.proof.text();
  EXPECT_EQ(lemmas[0], "T CB 0 14 0 ; -1 -3 0");
  const cert::CheckResult ok = cert::check_proof(f.proof.text(), {});
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_GE(ok.theory_lemmas, lemmas.size());

  // Dropping the explanation literal -v2 leaves 2*5 = 10 <= 14: the
  // tampered lemma no longer folds past the bound and is rejected.
  std::string tampered = f.proof.text();
  const std::size_t at = tampered.find(lemmas[0]);
  tampered.replace(at, lemmas[0].size(), "T CB 0 14 0 ; -1 0");
  const cert::CheckResult bad = cert::check_proof(tampered, {});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("do not exceed the combinator bound"),
            std::string::npos)
      << bad.error;
}

// ---- ObjectiveManager: Source variant and bound contracts -------------------

TEST(ObjectiveManagerSources, TaggedVariantReportsKindAndTheoryId) {
  Fixture f;
  const auto node = f.difference.new_node("mk");
  ObjectiveManager m;
  m.add(ObjectiveTerm::makespan("latency", &f.difference, node));
  m.add(ObjectiveTerm::linear("energy", &f.linear, f.s1));
  m.add(ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  ASSERT_EQ(m.count(), 3U);
  EXPECT_EQ(m.source(0).kind, ObjectiveManager::Source::Kind::Difference);
  EXPECT_EQ(m.source(0).id, node);
  EXPECT_EQ(m.source(1).kind, ObjectiveManager::Source::Kind::Linear);
  EXPECT_EQ(m.source(1).id, f.s1);
  EXPECT_EQ(m.source(2).kind, ObjectiveManager::Source::Kind::Combinator);
}

TEST(ObjectiveManagerBounds, LowerBoundsPushOnlyOntoLinearLeaves) {
  Fixture f;
  const auto node = f.difference.new_node("mk");
  ObjectiveManager m;
  m.add(ObjectiveTerm::linear("energy", &f.linear, f.s0));
  m.add(ObjectiveTerm::makespan("latency", &f.difference, node));
  m.add(ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  EXPECT_TRUE(m.add_lower_bound(0, 3));
  EXPECT_FALSE(m.add_lower_bound(1, 3));
  EXPECT_FALSE(m.add_lower_bound(2, 3));
}

TEST(ObjectiveManagerBounds, ResidualCombinatorBoundsRequireThePropagator) {
  Fixture f;
  ObjectiveManager m;
  // minmax fans out fully: no residual needed even when unattached.
  m.add(ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  // weighted pushdown is incomplete: the remainder needs the propagator.
  m.add(ObjectiveTerm::weighted(
      "w", {2, 3},
      {ObjectiveTerm::linear("a", &f.linear, f.s0),
       ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  m.add_bound(0, 5);  // ok
  EXPECT_THROW(m.add_bound(1, 5), std::logic_error);
}

}  // namespace
}  // namespace aspmt::dse
