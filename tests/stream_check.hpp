// Streamed-versus-batch comparison of the proof checker, shared by the
// certification tests: a cert::StreamChecker fed a proof in pieces must
// reach exactly the verdict, error and counts of one cert::check_proof call.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "cert/checker.hpp"
#include "proof_hints.hpp"

namespace aspmt::test {

/// Check `proof` fed in consecutive `piece`-byte pieces.
inline cert::CheckResult check_in_pieces(std::string_view proof,
                                         const cert::CheckOptions& options,
                                         std::size_t piece) {
  cert::StreamChecker checker(options);
  for (std::size_t at = 0; at < proof.size(); at += piece) {
    checker.feed(proof.substr(at, piece));
  }
  return checker.finish();
}

/// Check `proof` fed one line (with its newline) at a time.
inline cert::CheckResult check_by_lines(std::string_view proof,
                                        const cert::CheckOptions& options) {
  cert::StreamChecker checker(options);
  std::size_t at = 0;
  while (at < proof.size()) {
    const std::size_t eol = std::min(proof.find('\n', at), proof.size() - 1);
    checker.feed(proof.substr(at, eol + 1 - at));
    at = eol + 1;
  }
  return checker.finish();
}

/// Everything a check reports except its timings.
inline void expect_same_check(const cert::CheckResult& batch,
                              const cert::CheckResult& streamed,
                              const std::string& what) {
  EXPECT_EQ(batch.ok, streamed.ok) << what;
  EXPECT_EQ(batch.error, streamed.error) << what;
  EXPECT_EQ(step_counts(batch), step_counts(streamed)) << what;
  EXPECT_EQ(batch.truncated, streamed.truncated) << what;
  EXPECT_EQ(batch.hinted_learnts, streamed.hinted_learnts) << what;
  EXPECT_EQ(batch.rup_fallbacks, streamed.rup_fallbacks) << what;
  EXPECT_EQ(batch.propagations, streamed.propagations) << what;
  EXPECT_EQ(batch.floor_pairs.size(), streamed.floor_pairs.size()) << what;
  EXPECT_EQ(batch.floor_edges.size(), streamed.floor_edges.size()) << what;
  EXPECT_EQ(batch.shard_boxes, streamed.shard_boxes) << what;
  EXPECT_EQ(batch.unsafe_bounds, streamed.unsafe_bounds) << what;
}

}  // namespace aspmt::test
