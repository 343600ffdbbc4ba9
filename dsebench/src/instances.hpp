// Workloads and instance sets of the benchmark.
//
// Every workload is a fixed list of instance definitions.  A *pinned*
// instance is generated with the seed EXPERIMENTS.md uses, whatever the
// workload seed.  A *seeded* instance draws its generator seed from the
// workload seed; the default workload seed gives the EXPERIMENTS.md seed
// there too, so the default seed reproduces the documented instances
// exactly.  README.md explains which instances are pinned and why.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "gen/generator.hpp"
#include "gen/multicore.hpp"
#include "pareto/point.hpp"
#include "synth/spec.hpp"

namespace dsebench {

using namespace aspmt;

/// Workload seed that reproduces the EXPERIMENTS.md instances.
inline constexpr std::uint64_t kDefaultSeed = 0;

enum class Mode {
  Sequential,  ///< dse::explore
  Certified,   ///< dse::explore with certify = true
  Portfolio,   ///< dse::explore_parallel at min(4, hardware threads)
};

struct InstanceDef {
  std::string name;           ///< "S09", "mc10-lex", ...
  bool seeded = false;        ///< generator seed drawn from the workload seed
  std::variant<gen::GeneratorConfig, gen::MulticoreConfig> config;
};

struct WorkloadDef {
  std::string name;
  Mode mode = Mode::Sequential;
  std::vector<InstanceDef> instances;
};

/// The four workloads (ladder, certified, portfolio, multicore).
[[nodiscard]] const std::vector<WorkloadDef>& workloads();
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

/// A generated instance, ready to explore.
struct Instance {
  std::string name;  ///< definition name; seeded draws append "@<seed>"
  std::uint64_t generator_seed = 0;
  bool seeded = false;
  synth::Specification spec;
};

/// Generator seed of `def` under `workload_seed`.
[[nodiscard]] std::uint64_t generator_seed(const InstanceDef& def,
                                           std::uint64_t workload_seed);

/// Name an instance is reported (and looked up in the reference file)
/// under: the definition name, plus "@<generator seed>" for a seeded
/// instance whose seed differs from the EXPERIMENTS.md one.
[[nodiscard]] std::string instance_name(const InstanceDef& def,
                                        std::uint64_t workload_seed);

/// Generate the instance (gen::generate / gen::generate_multicore).
[[nodiscard]] synth::Specification generate(const InstanceDef& def,
                                            std::uint64_t generator_seed);

/// Checked-in reference fronts, keyed by instance name.
using ReferenceTable = std::map<std::string, std::vector<pareto::Vec>>;

/// Parse reference_fronts.txt ("<name> <v1> <v2> ..." per front point,
/// '#' comments).  Throws std::runtime_error on a malformed line.
[[nodiscard]] ReferenceTable load_references(const std::string& path);

/// Render a table in the file format load_references reads.
[[nodiscard]] std::string format_references(const ReferenceTable& table);

}  // namespace dsebench
