#include "measure.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "asp/solver.hpp"
#include "cert/checker.hpp"
#include "dse/baselines.hpp"
#include "dse/parallel_explorer.hpp"
#include "pareto/archive.hpp"
#include "pareto/indicators.hpp"
#include "synth/encoder.hpp"
#include "synth/validator.hpp"
#include "theory/difference.hpp"
#include "theory/linear_sum.hpp"

namespace dsebench {

namespace {

std::string point_text(const pareto::Vec& p) {
  std::string s = "(";
  for (std::size_t i = 0; i < p.size(); ++i) s += (i ? "," : "") + std::to_string(p[i]);
  return s + ")";
}

}  // namespace

SetupRound setup_instances(const WorkloadDef& workload, std::uint64_t workload_seed,
                           std::vector<Instance>& instances, Spans* spans, std::uint32_t run) {
  SetupRound round;
  const double start = now_seconds();
  SpanScope setup_span(spans, "setup", run);
  instances.clear();
  for (const InstanceDef& def : workload.instances) {
    Instance inst;
    inst.name = instance_name(def, workload_seed);
    inst.generator_seed = generator_seed(def, workload_seed);
    inst.seeded = def.seeded;
    {
      SpanScope span(spans,
                     std::holds_alternative<gen::GeneratorConfig>(def.config)
                         ? "gen::generate"
                         : "gen::generate_multicore",
                     run);
      inst.spec = generate(def, inst.generator_seed);
    }
    if (const std::string problem = inst.spec.validate(); !problem.empty()) {
      throw std::runtime_error(inst.name + ": generated spec is invalid: " + problem);
    }
    asp::Solver solver;
    theory::LinearSumPropagator linear;
    theory::DifferencePropagator dl;
    const double encode_start = now_seconds();
    {
      SpanScope span(spans, "synth::encode", run);
      (void)synth::encode(inst.spec, solver, linear, dl);
    }
    round.encode_seconds += now_seconds() - encode_start;
    round.vars += solver.num_vars();
    round.clauses += solver.num_problem_clauses();
    instances.push_back(std::move(inst));
  }
  round.seconds = now_seconds() - start;
  return round;
}

Reference resolve_reference(const Instance& instance, const ReferenceTable& table,
                            double limit_seconds) {
  Reference ref;
  if (const auto it = table.find(instance.name); it != table.end()) {
    ref.front = it->second;
    ref.source = "checked-in";
  } else if (!instance.seeded) {
    ref.error = "no checked-in reference front";
    return ref;
  } else {
    const dse::BaselineResult lex = dse::lexicographic_epsilon(instance.spec, limit_seconds);
    if (!lex.complete) {
      ref.error = "lexicographic_epsilon reference hit its time limit";
      return ref;
    }
    ref.front = lex.front;
    ref.source = "lexicographic_epsilon";
  }
  std::sort(ref.front.begin(), ref.front.end());
  const std::size_t dims = instance.spec.axis_count();
  ref.hv_point.assign(dims, 0);
  for (const pareto::Vec& p : ref.front) {
    if (p.size() != dims) {
      ref.error = "reference point " + point_text(p) + " has the wrong axis count";
      return ref;
    }
    for (std::size_t d = 0; d < dims; ++d) ref.hv_point[d] = std::max(ref.hv_point[d], p[d] + 1);
  }
  ref.hv = pareto::hypervolume(ref.front, ref.hv_point);
  return ref;
}

double hv90_seconds(const std::vector<std::pair<double, pareto::Vec>>& discoveries,
                    const Reference& reference, std::size_t dims) {
  const std::unique_ptr<pareto::Archive> archive = pareto::make_archive("linear", dims);
  for (const auto& [t, p] : discoveries) {
    if (!archive->insert(p)) continue;
    if (pareto::hypervolume(archive->points(), reference.hv_point) >= 0.9 * reference.hv) return t;
  }
  return -1.0;
}

Runner::Runner(const std::vector<Instance>& instances, const std::vector<Reference>& references,
               std::size_t portfolio_threads, double solve_limit_seconds, Spans* spans)
    : instances_(instances),
      references_(references),
      portfolio_threads_(portfolio_threads),
      solve_limit_seconds_(solve_limit_seconds),
      spans_(spans),
      checked_(instances.size()) {}

PassRecord Runner::run_pass(Mode mode, bool traced, std::uint32_t run) {
  Spans* spans = traced ? spans_ : nullptr;
  PassRecord pass;
  pass.traced = traced;
  pass.mode = mode;
  std::vector<dse::ExploreResult> results(instances_.size());
  const double pass_start = now_seconds();
  {
    SpanScope pass_span(spans, "pass", run);
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const Instance& inst = instances_[i];
      SolveRecord rec;
      rec.instance = i;
      CountingSink sink;
      dse::CommonOptions common;
      common.time_limit_seconds = solve_limit_seconds_;
      common.certify = mode == Mode::Certified;
      if (traced) common.sink = &sink;
      const double start = now_seconds();
      try {
        if (mode == Mode::Portfolio) {
          dse::ParallelExploreOptions options;
          options.common = common;
          options.threads = portfolio_threads_;
          dse::ParallelExploreResult par;
          {
            SpanScope span(spans, "dse::explore_parallel", run);
            par = dse::explore_parallel(inst.spec, options);
          }
          rec.threads = par.workers.size();
          for (const dse::WorkerReport& w : par.workers) {
            rec.worker_seconds += w.seconds;
            rec.shared_inserts += w.shared_inserts;
            rec.rejected_inserts += w.rejected_inserts;
            rec.worker_conflicts += w.conflicts;
            rec.slices_claimed += w.slices_claimed;
          }
          results[i] = std::move(par.base);
        } else {
          dse::ExploreOptions options;
          options.common = common;
          SpanScope span(spans, "dse::explore", run);
          results[i] = dse::explore(inst.spec, options);
        }
      } catch (const std::exception& e) {
        rec.failed = true;
        rec.error = inst.name + ": explorer threw: " + e.what();
      }
      rec.seconds = now_seconds() - start;
      rec.sink = sink.counts();
      pass.solves.push_back(std::move(rec));
    }
  }
  pass.seconds = now_seconds() - pass_start;

  const double gate_start = now_seconds();
  {
    SpanScope gate_span(spans, "gate", run);
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      SolveRecord& rec = pass.solves[i];
      if (rec.failed) continue;
      gate(instances_[i], references_[i], mode, traced, results[i], rec, run);
    }
  }
  pass.gate_seconds = now_seconds() - gate_start;
  return pass;
}

void Runner::gate(const Instance& inst, const Reference& ref, Mode mode, bool traced,
                  const dse::ExploreResult& result, SolveRecord& rec, std::uint32_t run) {
  Spans* spans = traced ? spans_ : nullptr;
  rec.stats = result.stats;
  rec.front_points = result.front.size();
  rec.discoveries = result.discoveries;
  rec.proof_bytes = result.proof.size();
  const auto fail = [&rec, &inst](std::string why) {
    if (!rec.failed) rec.error = inst.name + ": " + std::move(why);
    rec.failed = true;
  };
  if (!ref.error.empty()) fail(ref.error);
  if (!result.stats.complete) {
    fail(std::string("front not proven complete (") + dse::to_string(result.stats.reason) + ")");
  }
  std::vector<pareto::Vec> front = result.front;
  std::sort(front.begin(), front.end());
  if (front != ref.front) {
    fail("front differs from the " + ref.source + " reference (" +
         std::to_string(front.size()) + " vs " + std::to_string(ref.front.size()) + " points)");
  }
  if (result.witnesses.size() != result.front.size()) {
    fail("expected one witness per front point");
  } else {
    const double start = now_seconds();
    for (std::size_t k = 0; k < result.front.size(); ++k) {
      std::string problem;
      {
        SpanScope span(spans, "synth::validate_implementation", run);
        problem = synth::validate_implementation(inst.spec, result.witnesses[k]);
      }
      if (!problem.empty()) {
        fail("witness " + point_text(result.front[k]) + " rejected: " + problem);
      } else if (synth::recompute_objectives(inst.spec, result.witnesses[k]) != result.front[k]) {
        fail("witness does not reach " + point_text(result.front[k]));
      }
    }
    rec.validate_seconds = now_seconds() - start;
  }
  if (ref.error.empty()) {
    rec.hv90_seconds = hv90_seconds(result.discoveries, ref, inst.spec.axis_count());
  }

  if (mode != Mode::Certified) return;
  if (!result.certified) {
    fail("certificate refused: " + result.certificate_error);
    return;
  }
  const std::size_t hash = std::hash<std::string_view>{}(result.proof);
  std::optional<CheckedProof>& cached = checked_[rec.instance];
  if (!traced && cached && cached->hash == hash && cached->bytes == result.proof.size()) {
    rec.lemmas = cached->lemmas;
    rec.learnt = cached->learnt;
    return;
  }
  cert::CheckOptions options;
  options.require_global_unsat = true;
  cert::CheckResult check;
  const double start = now_seconds();
  {
    SpanScope span(spans, "cert::check_proof", run);
    check = cert::check_proof(result.proof, options);
  }
  rec.check_seconds = now_seconds() - start;
  if (!check.ok || !check.concluded_global_unsat) {
    fail("proof re-check refused: " + check.error);
    return;
  }
  rec.lemmas = check.theory_lemmas;
  rec.learnt = check.learnt_clauses;
  cached = CheckedProof{hash, result.proof.size(), rec.lemmas, rec.learnt};
}

std::pair<std::uint64_t, double> bcp_enumerate(const std::vector<Instance>& instances,
                                               std::size_t max_models, Spans* spans,
                                               std::uint32_t run) {
  std::uint64_t props = 0;
  double seconds = 0.0;
  for (const Instance& inst : instances) {
    asp::Solver solver;
    theory::LinearSumPropagator linear;
    theory::DifferencePropagator dl;
    synth::Encoding enc;
    {
      SpanScope span(spans, "synth::encode", run);
      enc = synth::encode(inst.spec, solver, linear, dl);
    }
    SpanScope span(spans, "bcp-enumerate", run);
    const double start = now_seconds();
    for (std::size_t m = 0; m < max_models; ++m) {
      if (solver.solve() != asp::Solver::Result::Sat) break;
      std::vector<asp::Lit> block;
      block.reserve(enc.decision_lits.size());
      for (const asp::Lit l : enc.decision_lits) {
        block.push_back(solver.model_value(l.var()) ? ~l : l);
      }
      if (!solver.add_clause(std::move(block))) break;
    }
    seconds += now_seconds() - start;
    props += solver.stats().propagations;
  }
  return {props, seconds};
}

double replay_ns_per_op(const std::vector<std::vector<std::pair<double, pareto::Vec>>>& discoveries,
                        const std::vector<std::size_t>& dims, const std::string& kind,
                        Spans* spans, std::uint32_t run) {
  SpanScope span(spans, "pareto::make_archive+insert " + kind, run);
  std::uint64_t ops = 0;
  const double start = now_seconds();
  double elapsed = 0.0;
  // Repeat the replay until it is long enough to time (>= 20 ms).
  do {
    for (std::size_t s = 0; s < discoveries.size(); ++s) {
      const std::unique_ptr<pareto::Archive> archive = pareto::make_archive(kind, dims[s]);
      for (const auto& entry : discoveries[s]) (void)archive->insert(entry.second);
      ops += discoveries[s].size();
    }
    elapsed = now_seconds() - start;
  } while (elapsed < 0.02 && ops > 0);
  return ops > 0 ? elapsed * 1e9 / static_cast<double>(ops) : 0.0;
}

}  // namespace dsebench
