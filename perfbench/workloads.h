// Input generation for the three benchmark workloads. Every input is a
// pure function of (workload, seed, scale): the seed reaches the program
// only through the generated ScenarioConfigs. Fast-path knobs ([policy],
// [shards]) are left at their defaults on purpose.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "models/profile.h"
#include "obs/provenance.h"
#include "runtime/run_record.h"
#include "sim/multi_edge.h"
#include "spans.h"

namespace perfbench {

enum class Workload { kFleet, kSweep, kWild };

/// "fleet" / "sweep" / "wild"; throws std::invalid_argument otherwise.
Workload parse_workload(const std::string& name);

/// What one workload hands to the program, plus the design-time work the
/// benchmark timed while producing it.
struct Inputs {
  std::vector<leime::runtime::Cell> cells;
  /// Executor workers the cells run on; 0 = one run_scenario call on the
  /// main thread (the fleet workload).
  int workers = 0;

  std::optional<leime::models::ModelProfile> profile;
  leime::sim::MultiEdgeConfig multi_edge;  ///< wild only

  std::size_t design_calls = 0;  ///< ME-DNN exit-setting searches
  std::size_t design_evaluations = 0;  ///< cost evaluations they ran
  double design_s = 0.0;
  std::size_t association_calls = 0;  ///< sim::associate searches (wild)
  double association_s = 0.0;
  /// Exit-setting oracle over the per-cell designs (wild only).
  leime::obs::ProvenanceSummary design_provenance;
};

/// Generates the workload's inputs. `tiny` shrinks every size for the
/// self-test; spans (may be null) receive inputs/association/design spans.
Inputs make_inputs(Workload workload, std::uint64_t seed, bool tiny,
                   SpanRecorder* spans);

}  // namespace perfbench
