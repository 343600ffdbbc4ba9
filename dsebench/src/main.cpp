// dsebench — time to the exact and to the certified Pareto front.
//
//   dsebench --workload <ladder|certified|portfolio|multicore> --seed <n>
//            --seconds <s> --trace <0|1> --references <file> [--out <dir>]
//            [--git-rev <rev>] [--tiny]
//            [--corrupt-reference]
//   dsebench --verify-references --references <file>
//   dsebench --print-references
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) alternate untraced and traced passes and report the
// per-layer metrics.  End-to-end times are scaled to a reference host by
// the calibration in calibrate.hpp.  The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is 0 only when every solve matched its reference front (and, in
// certified mode, every certificate was accepted).  See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "dse/baselines.hpp"
#include "dse/explorer.hpp"
#include "instances.hpp"
#include "measure.hpp"
#include "trace.hpp"

namespace {

using namespace dsebench;

// Per-solve time limit (explorer calls and lexicographic_epsilon
// references).  A solve that hits it counts as failed.
constexpr double kSolveLimitSeconds = 60.0;

// Calibration time after each measured cycle, as a share of the cycle.
constexpr double kCalibrationShare = 0.12;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string references;
  std::string out = ".";
  std::string git_rev = "unknown";
  bool tiny = false;
  bool corrupt_reference = false;
  bool verify_references = false;
  bool print_references = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "dsebench: " << problem << "\n"
            << "usage: dsebench --workload NAME --seed N --seconds S --trace 0|1 "
               "--references FILE [--out DIR] [--git-rev REV] [--tiny] "
               "[--corrupt-reference]\n"
               "       dsebench --verify-references --references FILE\n"
               "       dsebench --print-references\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") args.workload = value();
      else if (flag == "--seed") args.seed = std::stoull(value());
      else if (flag == "--seconds") args.seconds = std::stod(value());
      else if (flag == "--trace") args.trace = std::stoi(value()) != 0;
      else if (flag == "--references") args.references = value();
      else if (flag == "--out") args.out = value();
      else if (flag == "--git-rev") args.git_rev = value();
      else if (flag == "--tiny") args.tiny = true;
      else if (flag == "--corrupt-reference") args.corrupt_reference = true;
      else if (flag == "--verify-references") args.verify_references = true;
      else if (flag == "--print-references") args.print_references = true;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  return args;
}

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it (nearest
// rank), but never below the median: under 20 samples that is the median
// itself, which keeps the value continuous as the sample count crosses 20.
// With ten samples or fewer the maximum is taken.  `label` names the pick.
double tail(std::vector<double> v, std::string& label) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) {
    label = "none";
    return 0.0;
  }
  if (n <= 10) {
    label = "max of " + std::to_string(n);
    return v.back();
  }
  const std::size_t rank = std::max(n - 10, (n + 1) / 2);  // 1-based
  label = "p" + std::to_string(100 * rank / n) + " of " + std::to_string(n);
  return v[rank - 1];
}

// ---- host and build record -----------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Sanitizer this program was compiled under, from the compiler's own
// predefined macros; "" for none.
std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "";
#endif
#else
  return "";
#endif
}

// Numbers from an unoptimized, assert-enabled or sanitizer build are not
// comparable with anything and are refused.
bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return sanitizer().empty();
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---- metric tables --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  ///< e.g. "n=17 passes"
};

class MetricTable {
 public:
  void add(std::string name, double value, std::string unit, std::string samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(samples)});
  }

  void print(std::ostream& out) const {
    for (const Metric& m : metrics_) {
      char line[200];
      std::snprintf(line, sizeof line, "  %-32s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples.c_str());
      out << line;
    }
  }

  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      s += (i ? ", " : "") + std::string("\"") + metrics_[i].name + "\": {\"value\": " +
           number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string passes_label(std::size_t n) { return "n=" + std::to_string(n) + " passes"; }

// Sum a per-solve quantity over one pass.
template <typename F>
double pass_sum(const PassRecord& pass, F&& f) {
  double total = 0.0;
  for (const SolveRecord& s : pass.solves) total += static_cast<double>(f(s));
  return total;
}

// Median over passes of a per-pass quantity.
template <typename F>
double over_passes(const std::vector<const PassRecord*>& passes, F&& f) {
  std::vector<double> v;
  for (const PassRecord* p : passes) v.push_back(f(*p));
  return median(v);
}

std::vector<const PassRecord*> select(const std::vector<PassRecord>& passes, Mode mode,
                                      bool traced) {
  std::vector<const PassRecord*> out;
  for (const PassRecord& p : passes) {
    if (p.mode == mode && p.traced == traced) out.push_back(&p);
  }
  return out;
}

std::vector<double> walls(const std::vector<const PassRecord*>& passes) {
  std::vector<double> v;
  for (const PassRecord* p : passes) v.push_back(p->seconds);
  return v;
}

// ---- reference maintenance modes -----------------------------------------

// Every distinct instance of every workload at the default seed.
std::vector<Instance> default_instances() {
  std::vector<Instance> all;
  std::set<std::string> seen;
  for (const WorkloadDef& w : workloads()) {
    std::vector<Instance> instances;
    (void)setup_instances(w, kDefaultSeed, instances, nullptr, 0);
    for (Instance& inst : instances) {
      if (seen.insert(inst.name).second) all.push_back(std::move(inst));
    }
  }
  return all;
}

int print_references() {
  ReferenceTable table;
  for (const Instance& inst : default_instances()) {
    const dse::BaselineResult lex = dse::lexicographic_epsilon(inst.spec, 600.0);
    if (!lex.complete) {
      std::cerr << inst.name << ": lexicographic_epsilon did not finish\n";
      return 1;
    }
    table[inst.name] = lex.front;
  }
  std::cout << format_references(table);
  return 0;
}

// Cross-check every checked-in front against lexicographic_epsilon, the
// sequential explorer, and enumerate_and_filter where that finishes.
int verify_references(const ReferenceTable& table) {
  bool ok = true;
  for (const Instance& inst : default_instances()) {
    const auto it = table.find(inst.name);
    if (it == table.end()) {
      std::cout << inst.name << ": MISSING from the reference file\n";
      ok = false;
      continue;
    }
    const auto same = [&](std::vector<pareto::Vec> front) {
      std::sort(front.begin(), front.end());
      return front == it->second;
    };
    const dse::BaselineResult lex = dse::lexicographic_epsilon(inst.spec, 600.0);
    const dse::ExploreResult exp = dse::explore(inst.spec);
    const dse::BaselineResult en = dse::enumerate_and_filter(inst.spec, 30.0);
    const bool lex_ok = lex.complete && same(lex.front);
    const bool exp_ok = exp.stats.complete && same(exp.front);
    const bool enum_ok = !en.complete || same(en.front);
    ok = ok && lex_ok && exp_ok && enum_ok;
    std::cout << inst.name << ": " << it->second.size() << " points; lexicographic_epsilon "
              << (lex_ok ? "agrees" : "DISAGREES") << ", explore "
              << (exp_ok ? "agrees" : "DISAGREES") << ", enumerate_and_filter "
              << (!en.complete ? "did not finish in 30 s" : enum_ok ? "agrees" : "DISAGREES")
              << "\n";
  }
  std::cout << (ok ? "all reference fronts verified\n" : "reference check FAILED\n");
  return ok ? 0 : 1;
}

// ---- the measured run -----------------------------------------------------

struct RunState {
  Args args;
  const WorkloadDef* workload = nullptr;
  WorkloadDef tiny;  ///< seeded instances only (--tiny)
  std::vector<SetupRound> setups;
  std::vector<Instance> instances;
  std::vector<Reference> references;
  double reference_seconds = 0.0;
  std::size_t portfolio_threads = 1;
  std::vector<PassRecord> passes;
  std::vector<CalibrationUnit> calibration;
  double last_calibration = 0.0;  ///< mean unit seconds of the latest batch
  // Traced extras.
  /// Outside the certified workload: one certified (traced) and one plain
  /// pass over the seeded instances, so the cert layer is measured on every
  /// workload.
  std::vector<PassRecord> cert_probe;
  std::pair<std::uint64_t, double> bcp{0, 0.0};
  double replay_quadtree_ns = 0.0;
  double replay_linear_ns = 0.0;
};

Mode primary_mode(const RunState& st) { return st.workload->mode; }

const WorkloadDef& instance_set(const RunState& st) {
  return st.args.tiny ? st.tiny : *st.workload;
}

// One set-up sample: an unrecorded round, then a recorded one.  The first
// round after a pass re-faults the memory the pass released, and recording
// it mixed a 3 ms and a 5 ms mode in one run, which flipped the median
// between runs.
void record_setup(RunState& st, std::vector<Instance>& scratch) {
  (void)setup_instances(instance_set(st), st.args.seed, scratch, nullptr, 0);
  st.setups.push_back(setup_instances(instance_set(st), st.args.seed, scratch, nullptr, 0));
}

// A batch of calibration units lasting at least `min_seconds` (one unit at
// least); records the batch mean in last_calibration.  The portfolio runs
// on several CPUs at once, so its batches run on as many threads.
void calibrate(RunState& st, double min_seconds) {
  const std::size_t threads = primary_mode(st) == Mode::Portfolio ? st.portfolio_threads : 1;
  std::vector<std::vector<CalibrationUnit>> batches(threads);
  const auto work = [min_seconds](std::vector<CalibrationUnit>& out) {
    double spent = 0.0;
    do {
      out.push_back(calibration_unit());
      spent += out.back().seconds;
    } while (spent < min_seconds);
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work, std::ref(batches[t]));
  work(batches[0]);
  for (std::thread& t : pool) t.join();
  double spent = 0.0;
  std::size_t units = 0;
  for (const std::vector<CalibrationUnit>& batch : batches) {
    for (const CalibrationUnit& u : batch) {
      st.calibration.push_back(u);
      spent += u.seconds;
      ++units;
    }
  }
  st.last_calibration = spent / static_cast<double>(units);
}

// Median calibration unit time of the run.
double median_unit_seconds(const RunState& st) {
  std::vector<double> units;
  for (const CalibrationUnit& u : st.calibration) units.push_back(u.seconds);
  return median(units);
}

void measure(RunState& st, Spans* spans) {
  Runner runner(st.instances, st.references, st.portfolio_threads, kSolveLimitSeconds, spans);
  const Mode mode = primary_mode(st);
  // The run lasts --seconds, not counting the gate: the first certified
  // pass re-checks every proof stream, which would otherwise cost the
  // certified workload one of its three or four passes.
  const double start = now_seconds();
  double gate_seconds = 0.0;
  std::uint32_t run = 1;
  std::vector<Instance> scratch;
  do {
    // A cycle's times are scaled by the calibration batches on either side
    // of it, so the scale follows the host through the run.
    const double before = st.last_calibration;
    const std::size_t first_pass = st.passes.size();
    const double cycle_start = now_seconds();
    st.passes.push_back(runner.run_pass(mode, false, run++));
    if (st.args.trace) {
      st.passes.push_back(runner.run_pass(mode, true, run++));
      // Plain passes over the certified set give cert.overhead_x.
      if (mode == Mode::Certified) {
        st.passes.push_back(runner.run_pass(Mode::Sequential, false, run++));
      }
    }
    // One more set-up sample per cycle, so that setup_s covers the whole
    // run rather than one burst at its start.
    record_setup(st, scratch);
    calibrate(st, kCalibrationShare * (now_seconds() - cycle_start));
    const double scale =
        ratio(kCalibrationReferenceSeconds, 0.5 * (before + st.last_calibration));
    for (std::size_t i = first_pass; i < st.passes.size(); ++i) {
      st.passes[i].scale = scale;
      gate_seconds += st.passes[i].gate_seconds;
    }
    st.setups.back().scale = scale;
  } while (now_seconds() - start - gate_seconds < st.args.seconds);

  if (!st.args.trace) return;
  st.bcp = bcp_enumerate(st.instances, 300, spans, run);
  const PassRecord* last_traced = select(st.passes, mode, true).back();
  std::vector<std::vector<std::pair<double, pareto::Vec>>> discoveries;
  std::vector<std::size_t> dims;
  for (const SolveRecord& s : last_traced->solves) {
    discoveries.push_back(s.discoveries);
    dims.push_back(st.instances[s.instance].spec.axis_count());
  }
  st.replay_quadtree_ns = replay_ns_per_op(discoveries, dims, "quadtree", spans, run);
  st.replay_linear_ns = replay_ns_per_op(discoveries, dims, "linear", spans, run);

  if (mode == Mode::Certified) return;
  std::vector<Instance> seeded;
  std::vector<Reference> seeded_refs;
  for (std::size_t i = 0; i < st.instances.size(); ++i) {
    if (!st.instances[i].seeded) continue;
    seeded.push_back(st.instances[i]);
    seeded_refs.push_back(st.references[i]);
  }
  if (seeded.empty()) return;
  Runner probe(seeded, seeded_refs, st.portfolio_threads, kSolveLimitSeconds, spans);
  st.cert_probe.push_back(probe.run_pass(Mode::Certified, true, run));
  st.cert_probe.push_back(probe.run_pass(Mode::Sequential, false, run));
}

// Every time here is read in reference-host seconds: each pass and set-up
// sample is scaled by the calibration around it (calibrate.hpp).
MetricTable end_to_end(const RunState& st) {
  MetricTable t;
  const auto primary = select(st.passes, primary_mode(st), false);
  std::vector<double> w;
  for (const PassRecord* p : primary) w.push_back(p->scale * p->seconds);
  t.add("front_s.p50", median(w), "s", passes_label(w.size()));
  std::string label;
  const double tail_value = tail(w, label);
  t.add("front_s.tail", tail_value, "s", label + " passes");
  // Anytime cost of a pass: each solve's seconds to 90% of its reference
  // hypervolume, summed over the pass (a failed solve adds nothing).
  const double hv90 = over_passes(primary, [](const PassRecord& p) {
    return p.scale *
           pass_sum(p, [](const SolveRecord& s) { return std::max(s.hv90_seconds, 0.0); });
  });
  t.add("hv90_s.p50", hv90, "s", passes_label(primary.size()));
  std::vector<double> setup;
  for (const SetupRound& r : st.setups) setup.push_back(r.scale * r.seconds);
  t.add("setup_s", median(setup), "s", "n=" + std::to_string(setup.size()) + " set-ups");
  t.add("peak_rss_mib", peak_rss_mib(), "MiB", "n=1 process");
  return t;
}

MetricTable per_layer(const RunState& st) {
  MetricTable t;
  const Mode mode = primary_mode(st);
  const auto traced = select(st.passes, mode, true);
  const auto untraced = select(st.passes, mode, false);
  const std::string n = passes_label(traced.size());
  const auto sum = [&](auto f) {
    return over_passes(traced, [&](const PassRecord& p) { return pass_sum(p, f); });
  };
  const auto per_pass = [&](auto f) { return over_passes(traced, f); };

  const double props = sum([](const SolveRecord& s) { return s.stats.propagations; });
  const double conflicts = sum([](const SolveRecord& s) { return s.stats.conflicts; });
  const double solve_s = sum([](const SolveRecord& s) { return s.sink.solve_seconds; });
  t.add("asp.props", props, "count", n);
  t.add("asp.conflicts", conflicts, "count", n);
  t.add("asp.decisions", sum([](const SolveRecord& s) { return s.stats.decisions; }), "count", n);
  t.add("asp.solve_s", solve_s, "s", n);
  t.add("asp.props_per_s",
        per_pass([](const PassRecord& p) {
          return ratio(pass_sum(p, [](const SolveRecord& s) { return s.stats.propagations; }),
                       pass_sum(p, [](const SolveRecord& s) { return s.sink.solve_seconds; }));
        }),
        "1/s", n);
  t.add("asp.bcp_props_per_s", ratio(static_cast<double>(st.bcp.first), st.bcp.second), "1/s",
        "n=1 enumeration per instance");

  std::vector<double> encode_s;
  for (const SetupRound& r : st.setups) encode_s.push_back(r.encode_seconds);
  const std::string setups = "n=" + std::to_string(st.setups.size()) + " set-ups";
  t.add("synth.encode_s", median(encode_s), "s", setups);
  t.add("synth.vars", static_cast<double>(st.setups.back().vars), "count", "n=1 set-up");
  t.add("synth.clauses", static_cast<double>(st.setups.back().clauses), "count", "n=1 set-up");
  const double validate_s = sum([](const SolveRecord& s) { return s.validate_seconds; });
  t.add("synth.validate_s", validate_s, "s", n);

  const double theory = sum([](const SolveRecord& s) { return s.stats.theory_clauses; });
  t.add("theory.clauses", theory, "count", n);
  t.add("theory.clauses_per_conflict", ratio(theory, conflicts), "ratio", n);

  const double models = sum([](const SolveRecord& s) { return s.stats.models; });
  const double prunings = sum([](const SolveRecord& s) { return s.stats.prunings; });
  t.add("dse.models", models, "count", n);
  t.add("dse.prunings", prunings, "count", n);
  t.add("dse.prunings_per_conflict", ratio(prunings, conflicts), "ratio", n);
  t.add("dse.useful_ratio",
        ratio(sum([](const SolveRecord& s) { return s.front_points; }), models), "ratio", n);
  t.add("dse.solves_per_model",
        ratio(sum([](const SolveRecord& s) { return s.sink.solves; }), models), "ratio", n);
  // Explorer time outside solve(): call wall (summed worker time in the
  // portfolio) minus the summed solve spans.
  t.add("dse.loop_s",
        sum([mode](const SolveRecord& s) {
          return (mode == Mode::Portfolio ? s.worker_seconds : s.seconds) - s.sink.solve_seconds;
        }),
        "s", n);

  t.add("pareto.comparisons", sum([](const SolveRecord& s) { return s.stats.archive_comparisons; }),
        "count", n);
  t.add("pareto.evictions", sum([](const SolveRecord& s) { return s.sink.evictions; }), "count", n);
  t.add("pareto.replay_ns_per_op", st.replay_quadtree_ns, "ns", "quadtree, 1 replay");
  t.add("pareto.replay_linear_ns_per_op", st.replay_linear_ns, "ns", "linear, 1 replay");

  const bool portfolio = mode == Mode::Portfolio;
  t.add("portfolio.utilization",
        portfolio ? per_pass([](const PassRecord& p) {
          return ratio(pass_sum(p, [](const SolveRecord& s) { return s.worker_seconds; }),
                       pass_sum(p, [](const SolveRecord& s) {
                         return static_cast<double>(s.threads) * s.seconds;
                       }));
        })
                  : 0.0,
        "ratio", portfolio ? n : "n/a");
  const double shared = sum([](const SolveRecord& s) { return s.shared_inserts; });
  const double rejected = sum([](const SolveRecord& s) { return s.rejected_inserts; });
  t.add("portfolio.rejected_ratio", ratio(rejected, shared + rejected), "ratio",
        portfolio ? n : "n/a");
  t.add("portfolio.conflicts", sum([](const SolveRecord& s) { return s.worker_conflicts; }),
        "count", portfolio ? n : "n/a");
  t.add("portfolio.slices_claimed", sum([](const SolveRecord& s) { return s.slices_claimed; }),
        "count", portfolio ? n : "n/a");

  // The certified workload reads its own passes; the others read the
  // certified and plain passes over their seeded instances.
  const bool certified = mode == Mode::Certified;
  std::vector<const PassRecord*> cert_traced = traced;
  std::vector<const PassRecord*> cert_untraced = untraced;
  std::vector<const PassRecord*> plain = select(st.passes, Mode::Sequential, false);
  std::string cn = n;
  if (!certified) {
    cert_traced.clear();
    cert_untraced.clear();
    plain.clear();
    if (st.cert_probe.size() == 2) {
      cert_traced = cert_untraced = {&st.cert_probe[0]};
      plain = {&st.cert_probe[1]};
    }
    cn = "seeded instances, 1 certified pass";
  }
  const auto cert_sum = [&](auto f) {
    return over_passes(cert_traced, [&](const PassRecord& p) { return pass_sum(p, f); });
  };
  const double check_s = cert_sum([](const SolveRecord& s) { return s.check_seconds; });
  const double lemmas = cert_sum([](const SolveRecord& s) { return s.lemmas; });
  const double learnt = cert_sum([](const SolveRecord& s) { return s.learnt; });
  const double cert_validate_s = cert_sum([](const SolveRecord& s) { return s.validate_seconds; });
  t.add("cert.proof_mib",
        cert_sum([](const SolveRecord& s) { return s.proof_bytes; }) / (1024.0 * 1024.0), "MiB",
        cn);
  t.add("cert.lemmas", lemmas, "count", cn);
  t.add("cert.learnt", learnt, "count", cn);
  t.add("cert.check_s", check_s, "s", cn);
  t.add("cert.check_us_per_lemma", ratio(check_s * 1e6, lemmas + learnt), "us", cn);
  const double certified_wall = median(walls(cert_untraced));
  t.add("cert.log_s", certified_wall - check_s - cert_validate_s, "s", cn);
  t.add("cert.overhead_x", ratio(certified_wall, median(walls(plain))), "ratio",
        "n=" + std::to_string(plain.size()) + " plain passes");

  t.add("obs.trace_overhead", ratio(median(walls(traced)), median(walls(untraced))) - 1.0,
        "ratio", "traced n=" + std::to_string(traced.size()) +
                     ", untraced n=" + std::to_string(untraced.size()));

  // What the end-to-end times were scaled from: the unscaled pass time and
  // the host's calibration unit time.
  t.add("host.front_wall_s.p50", median(walls(untraced)), "s", passes_label(untraced.size()));
  t.add("host.calibration_s", median_unit_seconds(st), "s",
        "n=" + std::to_string(st.calibration.size()) + " units");
  return t;
}

// One row per instance: identity, front size, the last untraced pass's
// exact counts, and the median call time over untraced passes.
void print_instances(const RunState& st, std::ostream& out) {
  const auto untraced = select(st.passes, primary_mode(st), false);
  out << "instances (counts from the last untraced pass, wall times are medians over "
      << untraced.size() << " untraced passes):\n";
  for (std::size_t i = 0; i < st.instances.size(); ++i) {
    std::vector<double> secs;
    std::vector<double> hv;
    for (const PassRecord* p : untraced) {
      secs.push_back(p->solves[i].seconds);
      if (p->solves[i].hv90_seconds >= 0.0) hv.push_back(p->solves[i].hv90_seconds);
    }
    const SolveRecord& last = untraced.back()->solves[i];
    const Instance& inst = st.instances[i];
    char line[400];
    std::snprintf(line, sizeof line,
                  "  inst.%s gen_seed=%llu axes=%zu front=%zu models=%llu conflicts=%llu "
                  "props=%llu theory_clauses=%llu lemmas=%llu front_s=%.4f hv90_s=%.4f ref=%s\n",
                  inst.name.c_str(), static_cast<unsigned long long>(inst.generator_seed),
                  inst.spec.axis_count(), last.front_points,
                  static_cast<unsigned long long>(last.stats.models),
                  static_cast<unsigned long long>(last.stats.conflicts),
                  static_cast<unsigned long long>(last.stats.propagations),
                  static_cast<unsigned long long>(last.stats.theory_clauses),
                  static_cast<unsigned long long>(last.lemmas), median(secs), median(hv),
                  st.references[i].source.c_str());
    out << line;
  }
}

// Worker threads the portfolio explorer actually ran (0 outside the
// portfolio workload).
std::size_t portfolio_threads_used(const RunState& st) {
  std::size_t used = 0;
  for (const PassRecord& p : st.passes) {
    if (p.mode != Mode::Portfolio) continue;
    for (const SolveRecord& s : p.solves) used = std::max(used, s.threads);
  }
  return used;
}

void write_result_file(const RunState& st, const MetricTable& metrics, bool correct,
                       std::size_t attempted, std::size_t failed,
                       const std::vector<std::string>& errors) {
  const std::string path = st.args.out + "/result-" + st.workload->name + "-seed" +
                           std::to_string(st.args.seed) + "-trace" +
                           (st.args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "dsebench: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"workload\": \"" << st.workload->name << "\",\n  \"seed\": " << st.args.seed
      << ",\n  \"seconds\": " << number(st.args.seconds) << ",\n  \"trace\": "
      << (st.args.trace ? 1 : 0) << ",\n  \"host\": {\"git_rev\": \""
      << json_escape(st.args.git_rev) << "\", \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
      << json_escape(cpu_model()) << "\", \"build_type\": \"" << DSEBENCH_BUILD_TYPE
      << "\", \"sanitizer\": \"" << sanitizer() << "\", \"portfolio_threads\": "
      << portfolio_threads_used(st) << "},\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"reference_s\": " << number(st.reference_seconds)
      << ",\n  \"metrics\": " << metrics.json() << ",\n  \"pass_seconds\": [";
  for (std::size_t i = 0; i < st.passes.size(); ++i) {
    const PassRecord& p = st.passes[i];
    out << (i ? ", " : "") << "{\"traced\": " << (p.traced ? "true" : "false")
        << ", \"scale\": " << number(p.scale)
        << ", \"certified\": " << (p.mode == Mode::Certified ? "true" : "false")
        << ", \"s\": " << number(p.seconds) << ", \"hv90_s\": [";
    for (std::size_t k = 0; k < p.solves.size(); ++k) {
      out << (k ? ", " : "") << number(p.solves[k].hv90_seconds);
    }
    out << "]}";
  }
  out << "],\n  \"setup_seconds\": [";
  for (std::size_t i = 0; i < st.setups.size(); ++i) {
    out << (i ? ", " : "") << number(st.setups[i].seconds);
  }
  out << "],\n  \"calibration_seconds\": [";
  for (std::size_t i = 0; i < st.calibration.size(); ++i) {
    out << (i ? ", " : "") << number(st.calibration[i].seconds);
  }
  out << "],\n  \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(errors[i]) << "\"";
  }
  out << "]\n}\n";
}

int run(RunState& st) {
  Spans spans;
  Spans* span_sink = st.args.trace ? &spans : nullptr;

  // Set-up: the first round builds the instances that are measured (and,
  // traced, records the set-up spans); setup_s is the median of the
  // samples taken before measuring and after every measured cycle.
  (void)setup_instances(instance_set(st), st.args.seed, st.instances, span_sink, 0);
  std::vector<Instance> scratch;
  for (int r = 0; r < 3; ++r) record_setup(st, scratch);

  const ReferenceTable table = load_references(st.args.references);
  const double ref_start = now_seconds();
  for (const Instance& inst : st.instances) {
    st.references.push_back(resolve_reference(inst, table, kSolveLimitSeconds));
  }
  st.reference_seconds = now_seconds() - ref_start;
  if (st.args.corrupt_reference) {
    Reference& victim = st.references.back();
    if (!victim.front.empty()) ++victim.front.front().front();
  }

  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  st.portfolio_threads = std::min(4U, hw);

  // Warm-up calibration; its batch scales the set-up samples above and is
  // the "before" side of the first measured cycle.
  calibrate(st, 3 * kCalibrationReferenceSeconds);
  for (SetupRound& r : st.setups) {
    r.scale = ratio(kCalibrationReferenceSeconds, st.last_calibration);
  }

  std::cout << "dsebench: workload=" << st.workload->name << (st.args.tiny ? " (tiny)" : "")
            << " seed=" << st.args.seed << " seconds=" << st.args.seconds
            << " trace=" << (st.args.trace ? 1 : 0) << "\n"
            << "host: git_rev=" << st.args.git_rev << " hardware_threads=" << hw << " cpu=\""
            << cpu_model() << "\" build=" << DSEBENCH_BUILD_TYPE << " sanitizer="
            << (sanitizer().empty() ? "none" : sanitizer())
            << " portfolio_threads="
            << (primary_mode(st) == Mode::Portfolio ? std::to_string(st.portfolio_threads) : "-")
            << "\n"
            << "references resolved in " << st.reference_seconds << " s\n"
            << std::flush;

  measure(st, span_sink);
  for (const CalibrationUnit& u : st.calibration) {
    if (u.conflicts != st.calibration.front().conflicts) {
      throw std::runtime_error("calibration units did unequal work");
    }
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<const PassRecord*> all;
  for (const PassRecord& p : st.passes) all.push_back(&p);
  for (const PassRecord& p : st.cert_probe) all.push_back(&p);
  for (const PassRecord* p : all) {
    for (const SolveRecord& s : p->solves) {
      ++attempted;
      if (s.failed) {
        ++failed;
        if (errors.size() < 20) errors.push_back(s.error);
      }
    }
  }
  const bool correct = failed == 0;

  print_instances(st, std::cout);
  std::cout << "host calibration: median unit " << median_unit_seconds(st) << " s over "
            << st.calibration.size() << " units (reference " << kCalibrationReferenceSeconds
            << " s); end-to-end times are wall times scaled by the calibration around them\n";
  const MetricTable metrics = st.args.trace ? per_layer(st) : end_to_end(st);
  std::cout << (st.args.trace ? "per-layer metrics (traced passes):\n"
                              : "end-to-end metrics (untraced passes):\n");
  metrics.print(std::cout);
  std::cout << "  fail_ratio " << ratio(static_cast<double>(failed), static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " solves)\n";
  if (st.args.trace) {
    std::uint64_t dropped = 0;
    for (const PassRecord* p : all) {
      for (const SolveRecord& s : p->solves) dropped += s.sink.dropped;
    }
    // A dropped SolveEnd would make asp.solve_s read low.
    std::cout << "  events dropped by the obs rings: " << dropped << "\n";
    std::cout << "span self time (traced run):\n";
    for (const auto& [name, secs] : spans.self_seconds()) {
      std::printf("  %-40s %10.4f s\n", name.c_str(), secs);
    }
    std::fflush(stdout);
    const std::string trace_path = st.args.out + "/trace-" + st.workload->name + "-seed" +
                                   std::to_string(st.args.seed) + ".json";
    if (!spans.write_chrome_trace(trace_path)) {
      std::cerr << "dsebench: cannot write " << trace_path << "\n";
    }
  }
  if (primary_mode(st) == Mode::Portfolio) {
    std::cout << "portfolio threads used: " << portfolio_threads_used(st) << "\n";
  }
  for (const std::string& e : errors) std::cout << "FAILED: " << e << "\n";
  write_result_file(st, metrics, correct, attempted, failed, errors);

  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": " << metrics.json() << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunState st;
  st.args = parse_args(argc, argv);
  try {
    if (st.args.print_references) return print_references();
    if (st.args.references.empty()) usage("--references is required");
    if (st.args.verify_references) return verify_references(load_references(st.args.references));

    if (!optimized_build()) {
      std::cerr << "dsebench: build type '" << DSEBENCH_BUILD_TYPE << "', sanitizer '"
                << sanitizer() << "': results of a debug or sanitizer build are invalid "
                << "and are not reported\n";
      return 3;
    }
    st.workload = find_workload(st.args.workload);
    if (st.workload == nullptr) usage("unknown workload '" + st.args.workload + "'");
    if (!(st.args.seconds > 0.0)) usage("--seconds must be positive");
    st.tiny = *st.workload;
    std::erase_if(st.tiny.instances, [](const InstanceDef& d) { return !d.seeded; });
    return run(st);
  } catch (const std::exception& e) {
    std::cerr << "dsebench: " << e.what() << "\n";
    return 2;
  }
}
