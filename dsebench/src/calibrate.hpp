// Host-speed calibration.
//
// The benchmark runs on virtual machines whose share of a physical host
// changes under them: the same pass can take 0.6 s or 1.2 s depending on
// what the neighbours do, in phases lasting seconds to minutes.  The
// process's own CPU time moves with the wall time (the slowdown is not
// scheduling), so neither clock alone separates a slower program from a
// slower host.
//
// A calibration unit is a fixed amount of work of the same kind the
// explorer does: a small CDCL solver, frozen in this file's .cpp and never
// linked against the library under test, solving a fixed set of random
// 3-SAT formulas.  Its time moves with the host and never with the
// program.  Units run on the measuring thread between passes, outside
// every timed region, and each pass is scaled by
//
//     kCalibrationReferenceSeconds / mean unit seconds around the pass
//
// which reads it in seconds of a host on which one unit takes
// kCalibrationReferenceSeconds.  The slowdowns are per virtual CPU: units
// timed on another CPU at the same moment do not follow the pass at all,
// units on the same thread just before and after it do.  README.md
// ("Host-speed calibration") has the measurements behind this.
#pragma once

#include <cstdint>

namespace dsebench {

/// Median unit time on the development host in a calm phase (4-thread
/// Intel Xeon VM, Release build); the scale the time metrics are read in.
inline constexpr double kCalibrationReferenceSeconds = 0.1;

struct CalibrationUnit {
  double seconds = 0.0;
  std::uint64_t conflicts = 0;  ///< identical for every unit: the work is fixed
};

/// Run one calibration unit on the calling thread.
[[nodiscard]] CalibrationUnit calibration_unit();

}  // namespace dsebench
