// Hint-completeness checks shared by the certification tests.  A proof the
// solver writes must verify with every learnt step closed by its own hints
// (no fallback to full RUP search) and every deletion retiring a clause,
// and must count exactly what the same proof counts with every hint list
// stripped: hints speed the checker up and change nothing else.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "cert/certify.hpp"
#include "cert/checker.hpp"

namespace aspmt::test {

/// Length of a learnt line `L <lits> 0 [<hints> 0]` up to and including
/// the 0 that ends its clause.
inline std::size_t clause_end(std::string_view learnt_line) {
  std::size_t z = learnt_line.find(" 0");
  while (z != std::string_view::npos && z + 2 < learnt_line.size() &&
         learnt_line[z + 2] != ' ') {
    z = learnt_line.find(" 0", z + 1);
  }
  return z == std::string_view::npos ? learnt_line.size() : z + 2;
}

/// The proof with the hint list of every learnt step removed: `L <lits> 0`
/// stays, everything after that 0 goes.  Other lines are copied verbatim.
inline std::string strip_hints(std::string_view proof) {
  std::string out;
  out.reserve(proof.size());
  std::size_t pos = 0;
  while (pos < proof.size()) {
    std::size_t eol = proof.find('\n', pos);
    if (eol == std::string_view::npos) eol = proof.size();
    std::string_view line = proof.substr(pos, eol - pos);
    if (line.substr(0, 2) == "L ") line = line.substr(0, clause_end(line));
    out += line;
    if (eol < proof.size()) out += '\n';
    pos = eol + 1;
  }
  return out;
}

/// Every count of a check result except the timings.
inline std::vector<std::size_t> step_counts(const cert::CheckResult& r) {
  return {r.input_clauses,   r.guarded_clauses,     r.learnt_clauses,
          r.theory_lemmas,   r.deletions,           r.unmatched_deletions,
          r.conclusions,     r.feasible_points,     r.ok ? 1U : 0U,
          r.concluded_global_unsat ? 1U : 0U};
}

/// One `p aspmt 1` stream: verified, fully hinted, and counted like its
/// stripped copy.
inline void expect_stream_hints_complete(const std::string& proof,
                                         const std::string& what) {
  const cert::CheckResult hinted = cert::check_proof(proof);
  const cert::CheckResult stripped = cert::check_proof(strip_hints(proof));
  ASSERT_TRUE(hinted.ok) << what << ": " << hinted.error;
  EXPECT_EQ(hinted.rup_fallbacks, 0U) << what;
  EXPECT_EQ(hinted.unmatched_deletions, 0U) << what;
  EXPECT_EQ(hinted.hinted_learnts, hinted.learnt_clauses) << what;
  EXPECT_EQ(step_counts(hinted), step_counts(stripped)) << what;
  EXPECT_EQ(stripped.rup_fallbacks, stripped.learnt_clauses) << what;
}

/// A certified run's proof: a single stream, or a merged container whose
/// every shard stream is checked.
inline void expect_hints_complete(const std::string& proof,
                                  const std::string& what) {
  if (proof.rfind(cert::kMergedProofHeader, 0) != 0) {
    expect_stream_hints_complete(proof, what);
    return;
  }
  std::size_t objective = 0;
  std::vector<cert::ShardProof> shards;
  ASSERT_EQ(cert::parse_merged_proof(proof, objective, shards), "") << what;
  ASSERT_FALSE(shards.empty()) << what;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    expect_stream_hints_complete(shards[i].proof,
                                 what + " shard " + std::to_string(i));
  }
}

}  // namespace aspmt::test
