#include "cert/certify.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <queue>
#include <set>

#include "synth/validator.hpp"

namespace aspmt::cert {

namespace {

/// The constraint system a proof stream claims to solve: the subsequence of
/// its I/S/N/E/O/PR/FP/FE lines, verbatim.  Bound declarations (SB/SL/NB),
/// replay axioms (G) and all derivation steps are excluded — those
/// legitimately differ across shards of one distributed run; the system
/// itself must not.
std::string declaration_core(std::string_view proof) {
  std::string core;
  std::size_t pos = 0;
  while (pos < proof.size()) {
    std::size_t nl = proof.find('\n', pos);
    if (nl == std::string_view::npos) nl = proof.size();
    const std::string_view line = proof.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t sp = line.find(' ');
    const std::string_view head = line.substr(0, sp);
    if (head == "I" || head == "S" || head == "N" || head == "E" ||
        head == "O" || head == "PR" || head == "FP" || head == "FE") {
      core.append(line);
      core.push_back('\n');
    }
  }
  return core;
}

bool parse_i64(std::string_view token, std::int64_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

std::string_view take_line(std::string_view& rest) {
  const std::size_t nl = rest.find('\n');
  const std::string_view line =
      nl == std::string_view::npos ? rest : rest.substr(0, nl);
  rest = nl == std::string_view::npos ? std::string_view{} : rest.substr(nl + 1);
  return line;
}

std::string_view take_token(std::string_view& rest) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t sp = rest.find(' ');
  const std::string_view tok =
      sp == std::string_view::npos ? rest : rest.substr(0, sp);
  rest = sp == std::string_view::npos ? std::string_view{} : rest.substr(sp + 1);
  return tok;
}

/// Every discovery and every front point must carry one value per Pareto
/// axis of `spec`.  Returns an empty string when they do.
std::string arity_error(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front) {
  const std::size_t axes = spec.axis_count();
  auto check = [&](const pareto::Vec& p, const char* what) -> std::string {
    if (p.size() == axes) return {};
    return std::string("arity mismatch: ") + what + " " + pareto::to_string(p) +
           " has " + std::to_string(p.size()) + " objectives, the spec has " +
           std::to_string(axes) + " axes";
  };
  for (const auto& [point, impl] : discoveries) {
    if (std::string why = check(point, "discovery"); !why.empty()) return why;
  }
  for (const pareto::Vec& p : front) {
    if (std::string why = check(p, "front point"); !why.empty()) return why;
  }
  return {};
}

/// Why a discovery's witness does not vouch for its point: it fails
/// synth::Validator, or its objectives recompute to another vector.  Empty
/// when it does.
std::string witness_error(const synth::Specification& spec,
                          const pareto::Vec& point,
                          const synth::Implementation& impl) {
  const std::string why = synth::validate_implementation(spec, impl);
  if (!why.empty()) {
    return "witness for " + pareto::to_string(point) + " invalid: " + why;
  }
  if (synth::recompute_objectives(spec, impl) != point) {
    return "witness objectives disagree with the recorded point " +
           pareto::to_string(point);
  }
  return {};
}

constexpr std::int64_t kNoPath = std::numeric_limits<std::int64_t>::max();

/// Cheapest cost from every resource to every resource when a link costs
/// its `link_cost` field per hop: Dijkstra from each source (costs are
/// >= 0).  This is deliberately not the encoder's floor code, so a fault
/// there cannot vouch for itself.  kNoPath marks an unreachable pair.
std::vector<std::vector<std::int64_t>> cheapest_paths(
    const synth::Specification& spec, std::int64_t synth::Link::*link_cost) {
  const std::size_t R = spec.resources().size();
  std::vector<std::vector<std::int64_t>> cost(
      R, std::vector<std::int64_t>(R, kNoPath));
  using Entry = std::pair<std::int64_t, synth::ResourceId>;
  for (synth::ResourceId src = 0; src < R; ++src) {
    std::vector<std::int64_t>& d = cost[src];
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    d[src] = 0;
    open.push({0, src});
    while (!open.empty()) {
      const auto [c, r] = open.top();
      open.pop();
      if (c != d[r]) continue;
      for (const synth::LinkId l : spec.links_from(r)) {
        const synth::Link& link = spec.links()[l];
        const std::int64_t next = c + link.*link_cost;
        if (next < d[link.to]) {
          d[link.to] = next;
          open.push({next, link.to});
        }
      }
    }
  }
  return cost;
}

}  // namespace

std::string check_floor_claims(const synth::Specification& spec,
                               const CheckResult& check) {
  if (check.floor_pairs.empty() && check.floor_edges.empty()) return {};
  const auto& msgs = spec.messages();
  const auto& mappings = spec.mappings();
  const auto R = static_cast<std::int64_t>(spec.resources().size());
  auto in = [](std::int64_t v, std::size_t n) {
    return v >= 0 && v < static_cast<std::int64_t>(n);
  };
  const auto energy = cheapest_paths(spec, &synth::Link::hop_energy);
  const auto delay = cheapest_paths(spec, &synth::Link::hop_delay);

  for (const FloorPairClaim& c : check.floor_pairs) {
    const std::string what = "floor pair on literal " + std::to_string(c.lit);
    if (!in(c.message, msgs.size()) || c.src_resource < 0 ||
        c.src_resource >= R || c.dst_resource < 0 || c.dst_resource >= R) {
      return what + " names an unknown message or resource";
    }
    const std::int64_t path = energy[static_cast<std::size_t>(c.src_resource)]
                                    [static_cast<std::size_t>(c.dst_resource)];
    if (path == kNoPath) return what + " joins two unconnected resources";
    const __int128 bound =
        static_cast<__int128>(msgs[static_cast<std::size_t>(c.message)].payload) *
        path;
    if (c.weight > bound) {
      return what + " weighs " + std::to_string(c.weight) +
             ", above the message's cheapest communication energy " +
             std::to_string(static_cast<std::int64_t>(bound));
    }
  }

  // The encoding's floor edges: one per endpoint-option pair whose
  // resources are connected within the hop bound.
  const auto hops = spec.hop_distances();
  const std::uint32_t H = spec.effective_max_hops();
  std::set<std::array<std::size_t, 3>> expected;
  for (synth::MessageId m = 0; m < msgs.size(); ++m) {
    for (const std::size_t i : spec.mappings_of(msgs[m].src)) {
      for (const std::size_t j : spec.mappings_of(msgs[m].dst)) {
        const std::uint32_t h = hops[mappings[i].resource][mappings[j].resource];
        if (h != synth::Specification::kUnreachable && h <= H) {
          expected.insert({m, i, j});
        }
      }
    }
  }
  for (const FloorEdgeClaim& c : check.floor_edges) {
    const std::string what = "floor edge " + std::to_string(c.edge);
    if (!in(c.message, msgs.size()) || !in(c.src_option, mappings.size()) ||
        !in(c.dst_option, mappings.size())) {
      return what + " names an unknown message or mapping option";
    }
    const std::array<std::size_t, 3> key = {
        static_cast<std::size_t>(c.message),
        static_cast<std::size_t>(c.src_option),
        static_cast<std::size_t>(c.dst_option)};
    if (expected.erase(key) == 0) {
      return what + " is no floor edge of the encoding, or claims one twice";
    }
    const synth::Message& msg = msgs[key[0]];
    const synth::MappingOption& src = mappings[key[1]];
    const synth::MappingOption& dst = mappings[key[2]];
    const std::int64_t path = delay[src.resource][dst.resource];
    const __int128 bound =
        src.wcet + static_cast<__int128>(msg.payload) * path;
    if (c.weight > bound) {
      return what + " weighs " + std::to_string(c.weight) +
             ", above the source WCET plus cheapest communication delay " +
             std::to_string(static_cast<std::int64_t>(bound));
    }
  }
  if (!expected.empty()) {
    const auto& [m, i, j] = *expected.begin();
    return "floor edge of message " + std::to_string(m) + " between options " +
           std::to_string(i) + " and " + std::to_string(j) + " has no claim";
  }
  return {};
}

FrontCertifier::FrontCertifier(const synth::Specification& spec)
    : spec_(&spec), checker_([] {
        CheckOptions copts;
        copts.require_global_unsat = true;
        copts.trust_feasible_steps = false;
        return copts;
      }()) {}

void FrontCertifier::admit(const pareto::Vec& point,
                           const synth::Implementation& impl) {
  if (failed()) return;
  error_ = witness_error(*spec_, point, impl);
  if (!error_.empty()) return;
  points_.push_back(point);
  checker_.admit(point);
}

void FrontCertifier::feed(std::string_view bytes) {
  if (error_.empty()) checker_.feed(bytes);
}

CertifyResult FrontCertifier::finish(std::span<const pareto::Vec> front) {
  CertifyResult result;
  result.witnesses_validated = points_.size();
  if (!error_.empty()) {
    result.error = error_;
    return result;
  }
  // The proof must verify with only the admitted points as dominance
  // sources and must close with a global Unsat conclusion.
  result.check = checker_.finish();
  if (!result.check.ok) {
    result.error = "proof check failed: " + result.check.error;
    return result;
  }
  // Every declared floor weight must follow from the specification.
  if (std::string why = check_floor_claims(*spec_, result.check); !why.empty()) {
    result.error = "floor claim refused: " + why;
    return result;
  }
  // The reported front must be exactly the Pareto-minimal subset of the
  // validated discoveries.
  std::vector<pareto::Vec> minimal = pareto::non_dominated_filter(points_);
  std::vector<pareto::Vec> reported(front.begin(), front.end());
  std::sort(reported.begin(), reported.end());
  if (reported != minimal) {
    result.error = "reported front differs from the minimal validated set";
    return result;
  }
  result.certified = true;
  return result;
}

CertifyResult certify_front(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front, std::string_view proof) {
  CertifyResult result;
  result.error = arity_error(spec, discoveries, front);
  if (!result.error.empty()) return result;
  FrontCertifier certifier(spec);
  for (const auto& [point, impl] : discoveries) certifier.admit(point, impl);
  certifier.feed(proof);
  return certifier.finish(front);
}

MergedCertifyResult certify_merged(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front, std::span<const ShardProof> shards,
    std::size_t shard_objective) {
  MergedCertifyResult result;
  if (shards.empty()) {
    result.error = "no shard proofs to merge";
    return result;
  }
  result.error = arity_error(spec, discoveries, front);
  if (!result.error.empty()) return result;

  // 1. The union of all shards' discoveries must validate; only validated
  //    points are admissible dominance sources in *any* shard's stream.
  CheckOptions copts;
  copts.require_global_unsat = false;
  copts.trust_feasible_steps = false;
  copts.shard_objective = static_cast<std::int64_t>(shard_objective);
  copts.feasible_points.reserve(discoveries.size());
  for (const auto& [point, impl] : discoveries) {
    result.error = witness_error(spec, point, impl);
    if (!result.error.empty()) return result;
    ++result.witnesses_validated;
    copts.feasible_points.push_back(point);
  }

  // 2. Every shard's stream must verify, stay untruncated, declare no
  //    unconditional bound, prove a box containing its claimed band, and
  //    solve byte-for-byte the same constraint system as shard 0.
  std::string core;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardProof& shard = shards[i];
    const std::string tag = "shard " + std::to_string(i);
    CheckResult check = check_proof(shard.proof, copts);
    if (!check.ok) {
      result.error = tag + " proof check failed: " + check.error;
      result.checks.push_back(std::move(check));
      return result;
    }
    if (std::string why = check_floor_claims(spec, check); !why.empty()) {
      result.error = tag + " floor claim refused: " + why;
      result.checks.push_back(std::move(check));
      return result;
    }
    if (check.truncated) {
      result.error = tag + " proof is truncated; its band is not proven exhausted";
      result.checks.push_back(std::move(check));
      return result;
    }
    if (check.unsafe_bounds) {
      result.error = tag +
                     " declares an unconditional bound, breaking the "
                     "cross-shard model-extension argument";
      result.checks.push_back(std::move(check));
      return result;
    }
    bool covered = false;
    for (const std::array<std::int64_t, 2>& box : check.shard_boxes) {
      if (box[0] <= shard.lo && box[1] >= shard.hi) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      result.error = tag + " proves no box covering its claimed band [" +
                     std::to_string(shard.lo) + ", " + std::to_string(shard.hi) +
                     "]";
      result.checks.push_back(std::move(check));
      return result;
    }
    std::string shard_core = declaration_core(shard.proof);
    if (i == 0) {
      core = std::move(shard_core);
    } else if (shard_core != core) {
      result.error = tag + " solved a different constraint system than shard 0";
      result.checks.push_back(std::move(check));
      return result;
    }
    result.checks.push_back(std::move(check));
    ++result.shards_checked;
  }

  // 3. The claimed bands must tile the whole objective line exactly — sorted,
  //    gap-free, overlap-free, open at both ends.
  std::vector<std::array<std::int64_t, 2>> bands;
  bands.reserve(shards.size());
  for (const ShardProof& s : shards) bands.push_back({s.lo, s.hi});
  std::sort(bands.begin(), bands.end());
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (bands.front()[0] != kMin) {
    result.error = "shard bands leave the objective unbounded-below end uncovered";
    return result;
  }
  for (std::size_t i = 0; i < bands.size(); ++i) {
    if (bands[i][0] > bands[i][1]) {
      result.error = "shard band " + std::to_string(bands[i][0]) + " > " +
                     std::to_string(bands[i][1]) + " is empty";
      return result;
    }
    if (i + 1 < bands.size() && bands[i + 1][0] != bands[i][1] + 1) {
      result.error = bands[i + 1][0] <= bands[i][1]
                         ? "shard bands overlap"
                         : "shard bands leave a gap after " +
                               std::to_string(bands[i][1]);
      return result;
    }
  }
  if (bands.back()[1] != kMax) {
    result.error = "shard bands leave the objective unbounded-above end uncovered";
    return result;
  }

  // 4. The merged front must be exactly the Pareto-minimal subset of the
  //    validated union.
  std::vector<pareto::Vec> points;
  points.reserve(discoveries.size());
  for (const auto& [point, impl] : discoveries) points.push_back(point);
  std::vector<pareto::Vec> minimal =
      pareto::non_dominated_filter(std::move(points));
  std::vector<pareto::Vec> reported(front.begin(), front.end());
  std::sort(reported.begin(), reported.end());
  if (reported != minimal) {
    result.error = "merged front differs from the minimal validated union";
    return result;
  }

  result.certified = true;
  return result;
}

std::string merged_proof_to_text(std::size_t objective,
                                 std::span<const ShardProof> shards) {
  std::string out{kMergedProofHeader};
  out += "\nobjective ";
  out += std::to_string(objective);
  out += '\n';
  for (const ShardProof& s : shards) {
    out += "shard ";
    out += std::to_string(s.lo);
    out += ' ';
    out += std::to_string(s.hi);
    out += ' ';
    out += std::to_string(s.proof.size());
    out += '\n';
    out += s.proof;
    out += '\n';
  }
  return out;
}

std::string parse_merged_proof(std::string_view text, std::size_t& objective,
                               std::vector<ShardProof>& shards) {
  shards.clear();
  std::string_view rest = text;
  if (take_line(rest) != kMergedProofHeader) {
    return "missing merged-proof header";
  }
  std::string_view obj_line = take_line(rest);
  if (take_token(obj_line) != "objective") return "missing objective line";
  std::int64_t obj = -1;
  if (!parse_i64(take_token(obj_line), obj) || obj < 0) {
    return "malformed objective index";
  }
  objective = static_cast<std::size_t>(obj);
  while (!rest.empty()) {
    std::string_view line = take_line(rest);
    if (line.empty()) continue;
    if (take_token(line) != "shard") return "expected a shard block";
    ShardProof shard;
    std::int64_t nbytes = -1;
    if (!parse_i64(take_token(line), shard.lo) ||
        !parse_i64(take_token(line), shard.hi) ||
        !parse_i64(take_token(line), nbytes) || nbytes < 0) {
      return "malformed shard block header";
    }
    if (static_cast<std::size_t>(nbytes) > rest.size()) {
      return "truncated shard payload";
    }
    shard.proof.assign(rest.substr(0, static_cast<std::size_t>(nbytes)));
    rest.remove_prefix(static_cast<std::size_t>(nbytes));
    if (!rest.empty() && rest.front() == '\n') rest.remove_prefix(1);
    shards.push_back(std::move(shard));
  }
  if (shards.empty()) return "merged proof carries no shards";
  return {};
}

}  // namespace aspmt::cert
