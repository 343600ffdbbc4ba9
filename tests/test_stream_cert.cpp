// Streamed certification: the incremental checker reaches the batch
// check's verdict however the stream is split, admits a feasible point only
// from the moment it is validated, and the checker thread of a certified
// one-worker run ends on every exit path of the explorer.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "asp/proof.hpp"
#include "cert/certify.hpp"
#include "cert/checker.hpp"
#include "cert/online.hpp"
#include "dse/fault.hpp"
#include "dse/parallel_explorer.hpp"
#include "stream_check.hpp"
#include "synth/specio.hpp"
#include "synth_fixtures.hpp"

#ifndef ASPMT_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define ASPMT_TEST_DATA_DIR"
#endif

namespace aspmt {
namespace {

synth::Specification load_example(const std::string& name) {
  return synth::load_specification(std::string(ASPMT_TEST_DATA_DIR) +
                                   "/examples/specs/" + name + ".txt");
}

/// A certified one-worker run: its proof went through the checker thread.
dse::ParallelExploreResult certified_run(const synth::Specification& spec) {
  dse::ParallelExploreOptions opts;
  opts.threads = 1;
  opts.common.certify = true;
  return dse::explore_parallel(spec, opts);
}

/// Threads of this process, from /proc/self/status.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return -1;
}

TEST(StreamCheck, RealProofsSplitAtEveryLineCheckLikeTheBatch) {
  // mesh_small's proof fits in one chunk, bus_wide's spans several.
  for (const char* name : {"mesh_small", "bus_wide"}) {
    const dse::ParallelExploreResult r = certified_run(load_example(name));
    ASSERT_TRUE(r.base.certified) << name << ": " << r.base.certificate_error;
    const std::string& proof = r.base.proof;
    cert::CheckOptions opts;
    opts.require_global_unsat = true;
    const cert::CheckResult batch = cert::check_proof(proof, opts);
    ASSERT_TRUE(batch.ok) << name << ": " << batch.error;
    test::expect_same_check(batch, test::check_by_lines(proof, opts),
                            std::string(name) + " line by line");
    test::expect_same_check(
        batch, test::check_in_pieces(proof, opts, asp::ProofLog::kChunkBytes),
        std::string(name) + " in chunk-sized pieces");

    // A rejected proof keeps its line-numbered error too.
    std::string tampered = proof;
    const std::size_t pos = tampered.rfind("\nT ");
    ASSERT_NE(pos, std::string::npos) << name;
    tampered.replace(pos, 3, "\nT ZZ");
    const cert::CheckResult refused = cert::check_proof(tampered, opts);
    ASSERT_FALSE(refused.ok) << name;
    test::expect_same_check(refused, test::check_by_lines(tampered, opts),
                            std::string(name) + " tampered, line by line");
  }
}

TEST(StreamCheck, ShortProofsSplitAtEveryByteCheckLikeTheBatch) {
  const std::vector<std::string> proofs = {
      // accepted: hinted learnt step, deletion by id, conclusions
      "p aspmt 1\nI 1 2 0\nI 1 -2 0\nL 1 0 1 2 0\nD 1 2 0 1 0\nU -1 0\n",
      // accepted: theory lemmas, a feasible point and a dominance lemma
      "p aspmt 1\nS 0 2 1 3 2 4\nSB 0 5 0\nT LS 0 5 0 ; -1 -2 0\n"
      "O 0 L 0\nF 1 3 0\nT DOM 1 4 ; -1 0\nM 0\nX 0\n",
      // blank lines, and a last line without its newline
      "p aspmt 1\n\nI 1 0\n\nI -1 0\nU 0",
      // refused mid-stream, at a line cut by most splits
      "p aspmt 1\nI 1 2 0\nL 3 0 1 0\nU 0\n",
      // refused at the end
      "p aspmt 1\nI 1 2 0\n",
      "I 1 0\n",
      "",
      "\n",
      "p aspmt 1\nS 0 1 1 5\nSB 0 x 0\n",
  };
  for (const bool require_unsat : {false, true}) {
    cert::CheckOptions opts;
    opts.require_global_unsat = require_unsat;
    for (const std::string& proof : proofs) {
      const cert::CheckResult batch = cert::check_proof(proof, opts);
      test::expect_same_check(batch, test::check_in_pieces(proof, opts, 1),
                              "byte by byte: " + proof);
      for (std::size_t cut = 1; cut < proof.size(); ++cut) {
        cert::StreamChecker checker(opts);
        checker.feed(std::string_view(proof).substr(0, cut));
        checker.feed(std::string_view(proof).substr(cut));
        test::expect_same_check(batch, checker.finish(),
                                "cut at " + std::to_string(cut) + ": " + proof);
      }
    }
  }
}

TEST(StreamCheck, AFeasiblePointCountsOnlyFromItsAdmission) {
  const std::string prefix = "p aspmt 1\nS 0 1 1 5\nO 0 L 0\n";
  cert::CheckOptions opts;
  opts.trust_feasible_steps = false;
  const auto run = [&](const std::string& steps, bool admit_first) {
    cert::StreamChecker checker(opts);
    checker.feed(prefix);
    if (admit_first) checker.admit({3});
    checker.feed(steps);
    if (!admit_first) checker.admit({3});
    return checker.finish();
  };

  // An F step naming a point admitted only later is refused.
  EXPECT_TRUE(run("F 1 3 0\n", true).ok);
  const cert::CheckResult late_f = run("F 1 3 0\n", false);
  EXPECT_FALSE(late_f.ok);
  EXPECT_EQ(late_f.error, "line 4: feasible point lacks a validated witness");

  // So is a dominance lemma whose only source is admitted later.
  EXPECT_TRUE(run("T DOM 1 4 ; -1 0\n", true).ok);
  const cert::CheckResult late_dom = run("T DOM 1 4 ; -1 0\n", false);
  EXPECT_FALSE(late_dom.ok);
  EXPECT_NE(late_dom.error.find("line 4: theory lemma rejected: no certified "
                                "feasible point"),
            std::string::npos)
      << late_dom.error;

  // The batch check admits its feasible points before the first byte.
  opts.feasible_points = {{3}};
  EXPECT_TRUE(cert::check_proof(prefix + "F 1 3 0\nT DOM 1 4 ; -1 0\n", opts).ok);
}

TEST(StreamedCertification, OnlineCertifierKeepsQueueOrder) {
  const synth::Specification spec = load_example("bus_small");
  const dse::ParallelExploreResult r = certified_run(spec);
  ASSERT_TRUE(r.base.certified) << r.base.certificate_error;
  ASSERT_FALSE(r.discovery_witnesses.empty());

  // Discoveries ahead of the proof: certified.
  {
    cert::OnlineCertifier online(spec);
    for (const auto& [point, impl] : r.discovery_witnesses) {
      online.push_discovery(point, impl);
    }
    online.push_chunk(r.base.proof);
    const cert::CertifyResult cr = online.finish(r.base.front);
    EXPECT_TRUE(cr.certified) << cr.error;
    EXPECT_EQ(cr.witnesses_validated, r.discovery_witnesses.size());
    EXPECT_GT(online.busy_seconds(), 0.0);
  }
  // The proof ahead of its discoveries: its first F step names a point
  // that is not admitted yet.
  {
    cert::OnlineCertifier online(spec);
    online.push_chunk(r.base.proof);
    for (const auto& [point, impl] : r.discovery_witnesses) {
      online.push_discovery(point, impl);
    }
    const cert::CertifyResult cr = online.finish(r.base.front);
    EXPECT_FALSE(cr.certified);
    EXPECT_NE(cr.error.find("feasible point lacks a validated witness"),
              std::string::npos)
        << cr.error;
  }
}

TEST(StreamedCertification, EveryExitJoinsTheCheckerThread) {
  // A first thread makes a sanitizer runtime start its helper thread, so
  // that the count below sees only threads this test starts.
  std::thread([] {}).join();
  const int before = thread_count();
  ASSERT_GT(before, 0);
  const synth::Specification spec = test::chain3_bus();

  {  // completed and certified
    const dse::ParallelExploreResult r = certified_run(spec);
    EXPECT_TRUE(r.base.certified) << r.base.certificate_error;
    EXPECT_EQ(thread_count(), before) << "certified run";
  }
  const auto expect_truncated = [&](const dse::ParallelExploreResult& r,
                                    const char* what) {
    EXPECT_FALSE(r.base.stats.complete) << what;
    EXPECT_FALSE(r.base.certified) << what;
    ASSERT_GE(r.base.proof.size(), 4U) << what;
    EXPECT_EQ(r.base.proof.substr(r.base.proof.size() - 4), "X 0\n") << what;
    EXPECT_EQ(thread_count(), before) << what;
  };
  {  // time limit, injected mid-propagation
    dse::FaultPlan fault;
    fault.deadline_after_polls = 3;
    dse::ParallelExploreOptions opts;
    opts.threads = 1;
    opts.common.certify = true;
    opts.common.fault = &fault;
    const dse::ParallelExploreResult r = dse::explore_parallel(spec, opts);
    EXPECT_EQ(r.base.stats.reason, dse::StopReason::Deadline);
    expect_truncated(r, "time limit");
  }
  {  // conflict budget: the stream ends in `X 0`
    dse::ParallelExploreOptions opts;
    opts.threads = 1;
    opts.common.certify = true;
    opts.common.conflict_budget = 2;
    expect_truncated(dse::explore_parallel(load_example("mesh_chain"), opts),
                     "conflict budget");
  }
  {  // the worker throws after its second model
    dse::FaultPlan fault;
    fault.throw_worker = 0;
    fault.throw_after_models = 2;
    dse::ParallelExploreOptions opts;
    opts.threads = 1;
    opts.common.certify = true;
    opts.common.fault = &fault;
    const dse::ParallelExploreResult r = dse::explore_parallel(spec, opts);
    EXPECT_EQ(r.base.stats.reason, dse::StopReason::WorkerFailure);
    EXPECT_FALSE(r.base.certified);
    EXPECT_NE(r.base.certificate_error.find("never certified"), std::string::npos)
        << r.base.certificate_error;
    EXPECT_EQ(thread_count(), before) << "worker throw";
  }
  {  // the checker rejects the stream part-way
    const dse::ParallelExploreResult r = certified_run(spec);
    ASSERT_TRUE(r.base.certified) << r.base.certificate_error;
    std::string tampered = r.base.proof;
    const std::size_t pos = tampered.find("\nT ");
    ASSERT_NE(pos, std::string::npos);
    tampered.replace(pos, 3, "\nT ZZ");
    cert::OnlineCertifier online(spec);
    EXPECT_EQ(thread_count(), before + 1);
    for (const auto& [point, impl] : r.discovery_witnesses) {
      online.push_discovery(point, impl);
    }
    online.push_chunk(tampered);
    const cert::CertifyResult cr = online.finish(r.base.front);
    EXPECT_FALSE(cr.certified);
    EXPECT_NE(cr.error.find("proof check failed"), std::string::npos) << cr.error;
    EXPECT_EQ(thread_count(), before) << "checker reject";
  }
  {  // destroyed with work still queued and no verdict asked for
    const dse::ParallelExploreResult r = certified_run(spec);
    auto online = std::make_unique<cert::OnlineCertifier>(spec);
    online->push_chunk(r.base.proof);
    online.reset();
    EXPECT_EQ(thread_count(), before) << "destroyed unfinished";
  }
}

// ---- the standalone checker ------------------------------------------------
#ifdef ASPMT_CHECK_BIN

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "aspmt_stream_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Run aspmt_check on `input`; returns its exit code, stdout in `out`.
int run_check_tool(const std::string& input, std::string& out,
                   std::string& err) {
  const std::string out_path = temp_path("check_stdout.txt");
  const std::string err_path = temp_path("check_stderr.txt");
  const std::string cmd = std::string(ASPMT_CHECK_BIN) + " '" + input +
                          "' --require-unsat >" + out_path + " 2>" + err_path;
  const int status = std::system(cmd.c_str());
  out = slurp(out_path);
  err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CheckTool, AnUnreadableInputExitsTwo) {
  std::string out;
  std::string err;
  // A directory opens but cannot be read; a missing file does not open.
  for (const std::string& input :
       {::testing::TempDir(), temp_path("no_such_proof.txt")}) {
    EXPECT_EQ(run_check_tool(input, out, err), 2) << input;
    EXPECT_NE(err.find("cannot read"), std::string::npos) << input << ": " << err;
    EXPECT_EQ(out, "") << input;
  }
}

TEST(CheckTool, AProofSpanningSeveralReadBlocksChecksLikeTheBatch) {
  const dse::ParallelExploreResult r = certified_run(load_example("mesh_small"));
  ASSERT_TRUE(r.base.certified) << r.base.certificate_error;
  // Blank lines after the header push the steps past several 1 MiB blocks.
  std::string padded = r.base.proof;
  padded.insert(padded.find('\n') + 1, std::string(std::size_t{3} << 20, '\n'));
  std::string tampered = padded;
  tampered.replace(tampered.rfind("\nT "), 3, "\nT ZZ");
  cert::CheckOptions opts;
  opts.require_global_unsat = true;
  const std::string path = temp_path("padded.proof");
  std::string out;
  std::string err;

  std::ofstream(path, std::ios::binary) << padded;
  EXPECT_EQ(run_check_tool(path, out, err), 0) << out << err;
  EXPECT_NE(out.find("\nVERIFIED (global unsatisfiability concluded)\n"),
            std::string::npos)
      << out;

  std::ofstream(path, std::ios::binary) << tampered;
  const cert::CheckResult batch = cert::check_proof(tampered, opts);
  ASSERT_FALSE(batch.ok);
  EXPECT_EQ(run_check_tool(path, out, err), 1) << out << err;
  EXPECT_NE(out.find("\nREJECTED: " + batch.error + "\n"), std::string::npos)
      << out;
  std::remove(path.c_str());
}

#endif  // ASPMT_CHECK_BIN

}  // namespace
}  // namespace aspmt
