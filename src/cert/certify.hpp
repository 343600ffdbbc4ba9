// Front certification: combine witness validation with proof checking so a
// whole exploration result becomes independently verified.
//
// An exploration run is certified exact when
//   1. every point it ever discovered carries a witness implementation that
//      synth::Validator accepts, with objectives matching the recorded
//      vector (so each F step of the proof denotes a real design point);
//   2. the proof stream checks out end to end (cert::check_proof) with only
//      those validated points admitted as dominance sources, and contains a
//      verified assumption-free Unsat conclusion — no model escapes the
//      dominance-blocked regions, i.e. everything feasible is weakly
//      dominated by a validated point — and every objective floor the
//      stream declares (FP/FE steps) weighs at most what the specification
//      implies, recomputed here with cheapest-path code of its own, with
//      one declared floor edge per endpoint-option pair the encoding has;
//   3. the reported front equals the Pareto-minimal subset of the validated
//      discoveries.
// Together these imply the reported front is exactly the Pareto front of
// the declared constraint system, trusting only the encoding declarations
// (which the validator cross-checks on the model side).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cert/checker.hpp"
#include "pareto/point.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"

namespace aspmt::cert {

struct CertifyResult {
  bool certified = false;
  std::size_t witnesses_validated = 0;
  CheckResult check;
  /// Empty when certified; first failing condition otherwise.
  std::string error;
};

/// Re-derive the floor declarations of a verified stream
/// (CheckResult::floor_pairs / floor_edges) from the specification:
///   * a floor pair may weigh at most the message's payload times the
///     cheapest hop energy between its two resources;
///   * a floor edge may weigh at most the source option's WCET plus the
///     payload times the cheapest hop delay between the options' resources;
///   * a stream that declares floors at all declares exactly one floor edge
///     for every endpoint-option pair of every message whose resources are
///     within the hop bound (the encoding's floor edges).
/// Returns an empty string when every claim holds, the first failure
/// otherwise.  certify_front and certify_merged apply it to every stream.
/// Precondition: spec.validate() is empty.
[[nodiscard]] std::string check_floor_claims(const synth::Specification& spec,
                                             const CheckResult& check);

/// certify_front taken piece by piece, in stream order: each discovery is
/// validated and admitted before the proof bytes that cite it are fed, so
/// an `F` step or dominance lemma may name only a point admitted earlier.
/// Not thread-safe (cert/online.hpp runs one on a thread of its own).
class FrontCertifier {
 public:
  /// `spec` must outlive the certifier and satisfy spec.validate().empty().
  explicit FrontCertifier(const synth::Specification& spec);

  /// Validate a discovery's witness (it must pass synth::Validator and
  /// recompute to `point`) and admit the point as a dominance source.  A
  /// refused witness fails the certification.
  void admit(const pareto::Vec& point, const synth::Implementation& impl);
  /// Replay the next proof bytes (any split).
  void feed(std::string_view bytes);
  /// Certification can no longer succeed.
  [[nodiscard]] bool failed() const noexcept {
    return !error_.empty() || checker_.failed();
  }
  /// End the stream, which must close with a global Unsat; re-derive its
  /// floor claims from the spec; compare `front` with the Pareto-minimal
  /// admitted points.  Call once.
  [[nodiscard]] CertifyResult finish(std::span<const pareto::Vec> front);

 private:
  const synth::Specification* spec_;
  StreamChecker checker_;
  std::vector<pareto::Vec> points_;  // admitted, in admission order
  std::string error_;                // the first refused witness
};

/// Certify one exploration run: a FrontCertifier that admits every
/// discovery and then takes the whole proof in one feed.  `discoveries`
/// must pair every objective vector the run ever inserted into its archive
/// with the witness implementation captured for it; `front` is the reported
/// final front.  A discovery or front point whose length is not
/// `spec.axis_count()` is refused with an "arity mismatch" error in every
/// build type.
[[nodiscard]] CertifyResult certify_front(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front, std::string_view proof);

// ---------------------------------------------------------------------------
// Merged certification for distributed (sharded) runs — dse/distributed.hpp.
//
// A distributed run splits one objective's range into K disjoint bands
// ("boxes"), explores each band with an independent portfolio under
// activation-guarded band bounds, and merges the per-band fronts.  Each band
// hands up a raw `p aspmt 1` stream whose terminating Unsat is concluded
// under exactly its band activations.  certify_merged turns the collection
// into one verified exactness claim through four checks:
//
//   1. witness validation — the union of all shards' discoveries validates,
//      and only those points are admitted as dominance sources anywhere;
//   2. per-shard proof check with shard-box extraction
//      (CheckOptions::shard_objective): the checker-verified box of each
//      stream must contain the claimed band, the stream must be untruncated
//      and carry no unconditional bound (CheckResult::unsafe_bounds), its
//      floor claims must hold as in certify_front, and every stream's
//      declaration core (the I/S/N/E/O/PR/FP/FE lines — the constraint
//      system itself) must be byte-identical to shard 0's, so all shards
//      provably solved the same problem;
//   3. coverage — the claimed bands, sorted, tile (-inf, +inf) exactly: the
//      first is open below, each next band starts one past its predecessor's
//      end, the last is open above.  No gap escapes every shard's Unsat;
//   4. the merged front equals the Pareto-minimal subset of the validated
//      union.
//
// Soundness of the cross-shard argument: a feasible point inside a band
// extends to a model of the declared system with that band's activations
// true and every other auxiliary variable false (box purity, verified by the
// checker), so the band's verified Unsat means every feasible point in the
// band is weakly dominated by some validated point — possibly one discovered
// by a *different* shard, which is why the feasible set is the union.
// ---------------------------------------------------------------------------

/// One shard of a distributed run: the claimed closed band [lo, hi] on the
/// shard objective (INT64_MIN/INT64_MAX = unbounded end) and the raw
/// `p aspmt 1` stream its portfolio produced under the band activations.
struct ShardProof {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::string proof;
};

struct MergedCertifyResult {
  bool certified = false;
  std::size_t witnesses_validated = 0;
  std::size_t shards_checked = 0;
  /// Per-shard check outcomes, in input order, up to the first failure.
  std::vector<CheckResult> checks;
  /// Empty when certified; first failing condition otherwise.
  std::string error;
};

/// Certify a distributed run.  `discoveries` is the union of every shard's
/// discoveries (each with its witness), `front` the merged front,
/// `shard_objective` the banded objective's index in the spec's objective
/// order.  Point arity is checked as in certify_front.
[[nodiscard]] MergedCertifyResult certify_merged(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front, std::span<const ShardProof> shards,
    std::size_t shard_objective);

/// First line of the merged-proof container format.
inline constexpr std::string_view kMergedProofHeader = "p aspmt-merged 1";

/// Serialize shard proofs into the self-contained `p aspmt-merged 1`
/// container:
///   p aspmt-merged 1
///   objective <k>
///   shard <lo> <hi> <nbytes>
///   <nbytes raw proof bytes>
///   ... (one shard block per shard)
/// `aspmt_check` accepts this container next to plain `p aspmt 1` streams.
[[nodiscard]] std::string merged_proof_to_text(std::size_t objective,
                                               std::span<const ShardProof> shards);

/// Parse merged_proof_to_text output.  Returns "" on success, a diagnostic
/// otherwise.
[[nodiscard]] std::string parse_merged_proof(std::string_view text,
                                             std::size_t& objective,
                                             std::vector<ShardProof>& shards);

}  // namespace aspmt::cert
