// Set-up, timed passes and the reference-front gate.
//
// A *pass* runs every instance of the workload once, each until its front
// is proven complete (or certified, in certified mode).  Only the calls
// into the explorer are inside the pass's wall time; the gate that checks
// each result against its reference runs after the pass, untimed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dse/explorer.hpp"
#include "instances.hpp"
#include "trace.hpp"

namespace dsebench {

/// One round of set-up: generate every instance, validate its spec and
/// encode it once (the warm-up).
struct SetupRound {
  double seconds = 0.0;
  double encode_seconds = 0.0;  ///< summed synth::encode calls
  std::uint64_t vars = 0;       ///< solver variables over all encodings
  std::uint64_t clauses = 0;    ///< problem clauses over all encodings
  double scale = 1.0;           ///< reference-host s per wall s (calibrate.hpp)
};

[[nodiscard]] SetupRound setup_instances(const WorkloadDef& workload,
                                         std::uint64_t workload_seed,
                                         std::vector<Instance>& instances,
                                         Spans* spans, std::uint32_t run);

/// Reference front of one instance plus the hypervolume yardstick derived
/// from it (reference point = per-axis maximum + 1).
struct Reference {
  std::vector<pareto::Vec> front;
  pareto::Vec hv_point;
  double hv = 0.0;
  std::string source;  ///< "checked-in" or "lexicographic_epsilon"
  std::string error;   ///< non-empty when no reference could be had
};

/// The checked-in front when the table has the instance, else (seeded
/// draws only) a lexicographic_epsilon run bounded by `limit_seconds`.
/// Sets `error` when neither yields a complete front; the gate then fails
/// every solve of the instance.
[[nodiscard]] Reference resolve_reference(const Instance& instance,
                                          const ReferenceTable& table, double limit_seconds);

struct SolveRecord {
  std::size_t instance = 0;
  double seconds = 0.0;  ///< wall time of the explorer call
  bool failed = false;
  std::string error;
  dse::ExploreStats stats;
  std::size_t front_points = 0;
  double hv90_seconds = -1.0;  ///< < 0 when 90% was never reached
  std::vector<std::pair<double, pareto::Vec>> discoveries;
  // Gate work, timed separately.
  double validate_seconds = 0.0;
  std::size_t proof_bytes = 0;
  double check_seconds = 0.0;  ///< 0 when the stream was not re-checked
  std::uint64_t lemmas = 0;    ///< theory lemmas the checker re-derived
  std::uint64_t learnt = 0;    ///< learnt clauses the checker verified by RUP
  // Traced calls only.
  SinkCounts sink;
  // Portfolio only.
  std::size_t threads = 1;
  double worker_seconds = 0.0;
  std::uint64_t shared_inserts = 0;
  std::uint64_t rejected_inserts = 0;
  std::uint64_t worker_conflicts = 0;
  std::uint64_t slices_claimed = 0;
};

struct PassRecord {
  bool traced = false;
  Mode mode = Mode::Sequential;
  double seconds = 0.0;
  double scale = 1.0;  ///< reference-host s per wall s (calibrate.hpp)
  double gate_seconds = 0.0;  ///< checking the results, after the pass
  std::vector<SolveRecord> solves;
};

/// Runs passes over prepared instances and gates every result.
class Runner {
 public:
  Runner(const std::vector<Instance>& instances, const std::vector<Reference>& references,
         std::size_t portfolio_threads, double solve_limit_seconds, Spans* spans);

  /// One pass in `mode`.  Traced passes attach a CountingSink to every
  /// explorer call, record spans and always re-check proof streams; untraced
  /// passes re-check a stream only when its bytes differ from the last
  /// checked stream of that instance.
  [[nodiscard]] PassRecord run_pass(Mode mode, bool traced, std::uint32_t run);

 private:
  void gate(const Instance& instance, const Reference& reference, Mode mode, bool traced,
            const dse::ExploreResult& result, SolveRecord& record, std::uint32_t run);

  const std::vector<Instance>& instances_;
  const std::vector<Reference>& references_;
  std::size_t portfolio_threads_;
  double solve_limit_seconds_;
  Spans* spans_;
  struct CheckedProof {
    std::size_t hash = 0;
    std::size_t bytes = 0;
    std::uint64_t lemmas = 0;
    std::uint64_t learnt = 0;
  };
  std::vector<std::optional<CheckedProof>> checked_;
};

/// Seconds until the replayed archive first holds >= 90% of the reference
/// hypervolume; < 0 when it never does.
[[nodiscard]] double hv90_seconds(const std::vector<std::pair<double, pareto::Vec>>& discoveries,
                                  const Reference& reference, std::size_t dims);

/// Clause-propagation rate of the instances' encodings with no theory
/// propagator registered: enumerate up to `max_models` models per instance
/// under blocking clauses.  Returns (propagations, seconds).
[[nodiscard]] std::pair<std::uint64_t, double> bcp_enumerate(
    const std::vector<Instance>& instances, std::size_t max_models, Spans* spans,
    std::uint32_t run);

/// Nanoseconds per insert when replaying `discoveries` (one list per solve)
/// into fresh archives of `kind` made by pareto::make_archive.
[[nodiscard]] double replay_ns_per_op(
    const std::vector<std::vector<std::pair<double, pareto::Vec>>>& discoveries,
    const std::vector<std::size_t>& dims, const std::string& kind, Spans* spans,
    std::uint32_t run);

}  // namespace dsebench
