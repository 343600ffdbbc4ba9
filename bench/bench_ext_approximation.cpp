// Extension — ε-dominance approximation (the direction of the series'
// CODES+ISSS'18 follow-up "On leveraging approximations for exact
// system-level design space exploration").
//
// Sweeps the additive ε (as a fraction of each objective's front range) on
// the harder suite instances and reports time, archive size and the
// verified cover property: every exact front point q has an approximate
// point p with p <= q + eps.
#include <algorithm>
#include <iostream>

#include "dse/explorer.hpp"
#include "suite.hpp"
#include "util/table.hpp"

int main() {
  using namespace aspmt;
  const double limit = bench::method_time_limit();
  std::cout << "Extension: eps-dominance approximation (limit "
            << util::fmt(limit, 1) << "s per run)\n\n";
  bench::Report report("ext_approximation");
  report.metric("time_limit_s", limit);
  util::Table table({"inst", "eps", "time[s]", "|set|", "models", "covers exact"});
  const auto suite = bench::standard_suite();
  for (const std::size_t idx : {7UL, 8UL, 9UL}) {  // S08..S10
    const auto& entry = suite[idx];
    const synth::Specification spec = gen::generate(entry.config);

    dse::ExploreOptions exact_opts;
    exact_opts.common.time_limit_seconds = limit;
    const dse::ExploreResult exact = dse::explore(spec, exact_opts);
    pareto::Vec lo = exact.front.front();
    pareto::Vec hi = exact.front.front();
    for (const auto& p : exact.front) {
      for (std::size_t o = 0; o < 3; ++o) {
        lo[o] = std::min(lo[o], p[o]);
        hi[o] = std::max(hi[o], p[o]);
      }
    }
    table.add_row({entry.name, "exact",
                   exact.stats.complete ? util::fmt(exact.stats.seconds, 3)
                                        : std::string("t/o"),
                   util::fmt(static_cast<long long>(exact.front.size())),
                   util::fmt(static_cast<long long>(exact.stats.models)), "-"});
    report.metric(entry.name + ".exact_s", exact.stats.seconds);
    report.metric(entry.name + ".exact_front",
                  static_cast<double>(exact.front.size()));

    for (const double frac : {0.05, 0.10, 0.25}) {
      dse::ExploreOptions opts;
      opts.common.time_limit_seconds = limit;
      opts.common.epsilon = pareto::Vec(3, 0);
      for (std::size_t o = 0; o < 3; ++o) {
        opts.common.epsilon[o] = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(frac * static_cast<double>(hi[o] - lo[o])));
      }
      const dse::ExploreResult approx = dse::explore(spec, opts);
      std::string covers = "?";
      if (exact.stats.complete && approx.stats.complete) {
        bool all = true;
        for (const auto& q : exact.front) {
          bool found = false;
          for (const auto& p : approx.front) {
            bool le = true;
            for (std::size_t o = 0; o < 3; ++o) {
              if (p[o] > q[o] + opts.common.epsilon[o]) le = false;
            }
            if (le) {
              found = true;
              break;
            }
          }
          all = all && found;
        }
        covers = all ? "yes" : "NO";
        if (!all) {
          std::cerr << "EPSILON COVER VIOLATED on " << entry.name << "\n";
          return 1;
        }
      }
      table.add_row({entry.name,
                     util::fmt(100.0 * frac, 0) + "% " + pareto::to_string(opts.common.epsilon),
                     approx.stats.complete ? util::fmt(approx.stats.seconds, 3)
                                           : std::string("t/o"),
                     util::fmt(static_cast<long long>(approx.front.size())),
                     util::fmt(static_cast<long long>(approx.stats.models)),
                     covers});
      const std::string key =
          entry.name + ".eps" + util::fmt(100.0 * frac, 0);
      report.metric(key + "_s", approx.stats.seconds);
      report.metric(key + "_set", static_cast<double>(approx.front.size()));
    }
  }
  table.print(std::cout);
  std::cout << "\nclaim: growing eps shrinks the returned set and the "
               "runtime while the cover guarantee holds\n";
  const std::string path = report.write();
  std::cout << "wrote " << (path.empty() ? "(failed)" : path) << "\n";
  return 0;
}
