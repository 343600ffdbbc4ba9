// aspmt_check — standalone verifier for `p aspmt 1` proof streams and
// `p aspmt-merged 1` distributed-run containers.
//
//   aspmt_check proof.txt [--require-unsat] [--spec SPEC]
//
// Replays the proof with the solver-independent checker: every learnt
// clause is RUP-verified (by walking its hinted antecedents when it names
// them), every theory lemma re-derived from the declared theory data,
// every Unsat conclusion discharged by unit propagation.
// With --require-unsat the stream must additionally contain a verified
// assumption-free Unsat conclusion (the completeness certificate of an
// exhaustive exploration).  Feasible-point steps are taken at face value
// here; end-to-end witness validation is `aspmt_dse explore --certify`.
//
// A merged container is verified shard by shard: every embedded stream must
// check out, prove a shard box covering its claimed band, declare no
// unconditional bound, and share shard 0's declaration core; the claimed
// bands must tile the whole objective line (the cross-shard coverage
// argument — see cert/certify.hpp).  --require-unsat is implied per shard:
// each band-conditional Unsat *is* the shard's completeness certificate.
//
// The `steps:` line counts every step kind, then says where the replay
// spent its time.  Of the learnt clauses, `hinted` were closed by walking
// their hints alone; `fallbacks` needed a full RUP search, because they
// carried no hints or their hints did not lead to a conflict.  A proof
// written by aspmt_dse shows 0 fallbacks.  `propagations` literals were
// assigned while checking learnt clauses and Unsat conclusions, which took
// `rup` seconds; re-deriving the theory lemmas took `theory` seconds, split
// by lemma tag in parentheses.  Parsing, installs and deletions make up the
// rest of the wall time.  A merged container prints one `steps:` line per
// shard.
//
// `deleted` counts D steps, and `unmatched` those that retired no clause
// (a proof written by aspmt_dse shows 0 unmatched).  The `floors:` line
// counts the declared objective-floor sources (FP pairs, FE edges); with
// --spec their weights are re-derived from that specification, as
// `explore --certify` does, and a heavier claim rejects the proof.
//
// The proof is read once, in fixed-size blocks, and each block is replayed
// as it arrives (cert::StreamChecker); a merged container, recognised by
// its first block, is read whole.  Every literal must have magnitude at
// most 2^31-1 (the solver's variables are 32-bit) and at most the number of
// bytes read so far plus 2^20; a proof with a larger one is rejected, not
// replayed.
//
// Exit code: 0 when the proof verifies, 1 otherwise, 2 on usage errors and
// on an input that cannot be read.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cert/certify.hpp"
#include "cert/checker.hpp"
#include "synth/specio.hpp"

namespace {

constexpr const char* kUsage =
    "usage: aspmt_check proof.txt [--require-unsat] [--spec SPEC]\n";

/// Bytes read from the proof file at a time.
constexpr std::size_t kReadBlock = std::size_t{1} << 20;

/// Read the next block of `in` into `block`.  False on a read error.
bool read_block(std::FILE* in, std::string& block) {
  block.resize(kReadBlock);
  block.resize(std::fread(block.data(), 1, block.size(), in));
  return std::ferror(in) == 0;
}

void print_steps(const aspmt::cert::CheckResult& r) {
  std::cout << "steps: " << r.input_clauses << " input, " << r.learnt_clauses
            << " learnt (" << r.hinted_learnts << " hinted, " << r.rup_fallbacks
            << " fallbacks), " << r.theory_lemmas << " theory, " << r.deletions
            << " deleted (" << r.unmatched_deletions << " unmatched), "
            << r.conclusions << " conclusion(s), "
            << r.feasible_points << " feasible point(s), " << r.propagations
            << " propagations, rup " << std::fixed << std::setprecision(3)
            << r.rup_seconds << " s, theory " << r.theory_seconds << " s (";
  for (std::size_t i = 0; i < aspmt::cert::kTheoryTags.size(); ++i) {
    std::cout << (i == 0 ? "" : " ") << aspmt::cert::kTheoryTags[i] << " "
              << r.theory_tag_seconds[i];
  }
  std::cout << ")\n" << std::defaultfloat;
}

/// Print the `floors:` line of a verified stream; with a spec, re-derive
/// the floor weights first.  False iff a claim is refused (already printed).
bool report_floors(const aspmt::cert::CheckResult& r,
                   const aspmt::synth::Specification* spec) {
  std::cout << "floors: " << r.floor_pairs.size() << " pair(s), "
            << r.floor_edges.size() << " edge(s) ";
  if (spec == nullptr) {
    std::cout << "declared (weights not re-derived; pass --spec)\n";
    return true;
  }
  const std::string why = aspmt::cert::check_floor_claims(*spec, r);
  if (!why.empty()) {
    std::cout << "refused\nREJECTED: floor claim: " << why << "\n";
    return false;
  }
  std::cout << "verified against the spec\n";
  return true;
}

int check_merged(const std::string& text,
                 const aspmt::synth::Specification* spec) {
  using namespace aspmt::cert;
  std::size_t objective = 0;
  std::vector<ShardProof> shards;
  const std::string perr = parse_merged_proof(text, objective, shards);
  if (!perr.empty()) {
    std::cout << "REJECTED: " << perr << "\n";
    return 1;
  }
  std::cout << "merged container: " << shards.size()
            << " shard(s) on objective " << objective << "\n";

  CheckOptions options;
  options.shard_objective = static_cast<std::int64_t>(objective);
  std::string core;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardProof& shard = shards[i];
    const CheckResult r = check_proof(shard.proof, options);
    print_steps(r);
    if (!r.ok) {
      std::cout << "REJECTED: shard " << i << ": " << r.error << "\n";
      return 1;
    }
    if (!report_floors(r, spec)) return 1;
    if (r.truncated) {
      std::cout << "REJECTED: shard " << i
                << " stream truncated — no completeness claim\n";
      return 1;
    }
    if (r.unsafe_bounds) {
      std::cout << "REJECTED: shard " << i
                << " declares an unconditional bound\n";
      return 1;
    }
    bool covered = false;
    for (const std::array<std::int64_t, 2>& box : r.shard_boxes) {
      if (box[0] <= shard.lo && box[1] >= shard.hi) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      std::cout << "REJECTED: shard " << i
                << " proves no box covering its claimed band\n";
      return 1;
    }
    // All shards must have solved the same declared constraint system.
    std::string shard_core;
    std::istringstream lines(shard.proof);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string head = line.substr(0, line.find(' '));
      if (head == "I" || head == "S" || head == "N" || head == "E" ||
          head == "O" || head == "PR" || head == "FP" || head == "FE") {
        shard_core += line + "\n";
      }
    }
    if (i == 0) {
      core = std::move(shard_core);
    } else if (shard_core != core) {
      std::cout << "REJECTED: shard " << i
                << " solved a different constraint system than shard 0\n";
      return 1;
    }
    std::cout << "shard " << i << ": verified (" << r.theory_lemmas
              << " theory lemmas, " << r.conclusions << " conclusion(s), "
              << r.shard_boxes.size() << " box(es))\n";
  }

  // Coverage: the claimed bands tile (-inf, +inf) exactly.
  std::vector<std::array<std::int64_t, 2>> bands;
  bands.reserve(shards.size());
  for (const ShardProof& s : shards) bands.push_back({s.lo, s.hi});
  std::sort(bands.begin(), bands.end());
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  bool tiled = bands.front()[0] == kMin && bands.back()[1] == kMax;
  for (std::size_t i = 0; tiled && i + 1 < bands.size(); ++i) {
    if (bands[i + 1][0] != bands[i][1] + 1) tiled = false;
  }
  if (!tiled) {
    std::cout << "REJECTED: shard bands do not tile the objective line\n";
    return 1;
  }
  std::cout << "VERIFIED (band union covers the objective space)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string spec_path;
  aspmt::cert::CheckOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-unsat") {
      options.require_global_unsat = true;
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  aspmt::synth::Specification spec;
  if (!spec_path.empty()) {
    try {
      spec = aspmt::synth::load_specification(spec_path);
    } catch (const std::exception& e) {
      std::cerr << "cannot load spec '" << spec_path << "': " << e.what() << "\n";
      return 2;
    }
    if (const std::string problem = spec.validate(); !problem.empty()) {
      std::cerr << "invalid spec '" << spec_path << "': " << problem << "\n";
      return 2;
    }
  }
  const aspmt::synth::Specification* spec_ptr =
      spec_path.empty() ? nullptr : &spec;
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> in(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  std::string block;
  const auto cannot_read = [&path] {
    std::cerr << "cannot read '" << path << "'\n";
    return 2;
  };
  if (in == nullptr) return cannot_read();
  std::setvbuf(in.get(), nullptr, _IONBF, 0);  // fread straight into block
  if (!read_block(in.get(), block)) return cannot_read();

  if (block.rfind(aspmt::cert::kMergedProofHeader, 0) == 0) {
    std::string text = std::move(block);
    do {
      if (!read_block(in.get(), block)) return cannot_read();
      text += block;
    } while (!block.empty());
    return check_merged(text, spec_ptr);
  }

  aspmt::cert::StreamChecker checker(options);
  while (!block.empty()) {
    checker.feed(block);
    if (!read_block(in.get(), block)) return cannot_read();
  }
  const aspmt::cert::CheckResult r = checker.finish();
  print_steps(r);
  if (!r.ok) {
    std::cout << "REJECTED: " << r.error << "\n";
    return 1;
  }
  if (!report_floors(r, spec_ptr)) return 1;
  std::cout << "VERIFIED"
            << (r.concluded_global_unsat ? " (global unsatisfiability concluded)"
                                         : "")
            << (r.truncated ? " (stream truncated — no completeness claim)" : "")
            << "\n";
  return 0;
}
