#include "instances.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace dsebench {

namespace {

// Table-2 rung (bench/suite.cpp: standard_suite) with its EXPERIMENTS seed.
InstanceDef rung(std::string name, bool seeded, std::uint64_t seed,
                 std::uint32_t tasks, gen::Architecture arch,
                 std::uint32_t options, std::uint32_t layers,
                 std::uint32_t bus_processors = 3) {
  gen::GeneratorConfig c;
  c.seed = seed;
  c.tasks = tasks;
  c.architecture = arch;
  c.options_per_task = options;
  c.layers = layers;
  c.bus_processors = bus_processors;
  return InstanceDef{std::move(name), seeded, c};
}

InstanceDef s05() { return rung("S05", true, 105, 6, gen::Architecture::Mesh2x2, 2, 3); }
InstanceDef s06() { return rung("S06", false, 106, 8, gen::Architecture::SharedBus, 3, 4, 4); }
InstanceDef s07() { return rung("S07", true, 107, 8, gen::Architecture::Mesh2x2, 2, 4); }
InstanceDef s08() { return rung("S08", false, 108, 8, gen::Architecture::Mesh3x3, 2, 4); }
InstanceDef s09() { return rung("S09", false, 110, 11, gen::Architecture::Mesh3x3, 2, 5); }

// Multicore PPA family as in EXPERIMENTS.md: generate --family multicore
// --tasks T --big 1 --little 2 --depths 2 --caches 2 --options 3 --seed 11.
InstanceDef multicore(std::uint32_t tasks, const std::string& axes_name, bool seeded) {
  gen::MulticoreConfig c;
  c.seed = 11;
  c.tasks = tasks;
  c.big_cores = 1;
  c.little_cores = 2;
  c.pipeline_depths = 2;
  c.cache_levels = 2;
  c.options_per_task = 3;
  if (axes_name == "lex") {
    c.axes = {"lex(latency,energy)", "cost"};
  } else if (axes_name == "minmax") {
    c.axes = {"minmax(latency,cost)", "worst(energy,energy@throttle)"};
  } else {
    c.axes = {"weighted(2*energy+1*cost)", "latency"};
  }
  return InstanceDef{"mc" + std::to_string(tasks) + "-" + axes_name, seeded, c};
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t default_seed(const InstanceDef& def) {
  return std::visit([](const auto& c) { return c.seed; }, def.config);
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> all = {
      {"ladder", Mode::Sequential, {s05(), s06(), s07(), s08(), s09()}},
      {"certified", Mode::Certified,
       {s06(), s07(), s08(), multicore(10, "lex", false), multicore(10, "minmax", false)}},
      {"portfolio", Mode::Portfolio, {s06(), s07(), s08(), s09()}},
      {"multicore", Mode::Sequential,
       {multicore(6, "lex", true), multicore(6, "minmax", true), multicore(10, "lex", false),
        multicore(10, "minmax", false), multicore(10, "weighted", false)}},
  };
  return all;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t generator_seed(const InstanceDef& def, std::uint64_t workload_seed) {
  if (!def.seeded || workload_seed == kDefaultSeed) return default_seed(def);
  std::uint64_t h = splitmix64(workload_seed);
  for (const char ch : def.name) h = splitmix64(h ^ static_cast<unsigned char>(ch));
  return h;
}

std::string instance_name(const InstanceDef& def, std::uint64_t workload_seed) {
  const std::uint64_t seed = generator_seed(def, workload_seed);
  if (seed == default_seed(def)) return def.name;
  return def.name + "@" + std::to_string(seed);
}

synth::Specification generate(const InstanceDef& def, std::uint64_t seed) {
  return std::visit(
      [seed](auto c) -> synth::Specification {
        c.seed = seed;
        if constexpr (std::is_same_v<decltype(c), gen::GeneratorConfig>) {
          return gen::generate(c);
        } else {
          return gen::generate_multicore(c);
        }
      },
      def.config);
}

ReferenceTable load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference fronts " + path);
  ReferenceTable table;
  std::string line;
  std::size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    pareto::Vec point;
    std::int64_t v = 0;
    while (fields >> v) point.push_back(v);
    if (name.empty() || point.empty() || !fields.eof()) {
      throw std::runtime_error(path + ":" + std::to_string(number) + ": malformed line");
    }
    table[name].push_back(std::move(point));
  }
  for (auto& [name, front] : table) std::sort(front.begin(), front.end());
  return table;
}

std::string format_references(const ReferenceTable& table) {
  std::ostringstream out;
  for (const auto& [name, front] : table) {
    for (const pareto::Vec& p : front) {
      out << name;
      for (const std::int64_t v : p) out << ' ' << v;
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace dsebench
