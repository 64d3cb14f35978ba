// INI-file scenario descriptions (the format consumed by
// examples/scenario_runner and documented by `scenario_runner --template`).
//
// Sections:
//   [scenario]  model / policy / duration / warmup / seed / replications /
//               reallocation_period / shared_uplink_mbps / result_bytes
//   [edge]      gflops / cloud_tflops / cloud_mbps / cloud_latency_ms
//   [device]    (repeatable) gflops / rate / uplink_mbps /
//               uplink_latency_ms / difficulty / class (observability
//               grouping label, lowercase [a-z0-9_]+)
//   [runtime]   (optional) threads / seed_mode (split | legacy) / jsonl /
//               trace / progress — how the runtime executor runs the
//               replications and where structured telemetry goes
//   [faults]    (optional) link_outage_windows / link_outage_rate /
//               edge_down_windows / edge_crash_rate / churn /
//               detection_timeout_s / task_timeout_s / max_retries / ... —
//               fault injection + graceful degradation (sim/faults.h)
//   [observability]  (optional) metrics / trace_sample / timeseries /
//               metrics_out / metrics_jsonl / trace_out / timeseries_out /
//               attribution / attribution_out / calibration_out —
//               the in-simulation observability layer (sim/observer.h).
//               Omitting the section keeps the zero-overhead path.
//   [slo]       (optional) deadline_ms / window_s / target_miss_rate /
//               burn_threshold / min_window_tasks / alerts_out — the
//               deterministic sim-time SLO monitor (obs/slo.h). Omitting
//               the section (or deadline_ms = 0) disables it.
//   [provenance] (optional) sample_n / ring_capacity / oracle_sample_n /
//               decisions_out / dump_out — decision provenance, oracle
//               regret and the SLO-triggered flight recorder
//               (obs/provenance.h). Omitting the section keeps the
//               zero-overhead path.
//   [topology]  (optional) aps / ap_mbps / ap_latency_ms / device_map /
//               queue_limit_kb — the routed multi-hop network fabric
//               (net/topology.h). Omitting the section (or aps = 0) keeps
//               the flat point-to-point links.
// A [policy] section is rejected: its keys configured exit-setting and
// offload fast paths that have been removed (DESIGN.md §12).
//   [shards]    (optional) shards / threads / window_ms — conservative-
//               time-window sharded execution of one simulation
//               (sim/shard.h, DESIGN.md §15). Omitting the section (or
//               shards = 1) keeps the single-queue path; results are
//               byte-identical either way. threads is the run's thread
//               budget: at shards = 1 it sizes the pool that solves a
//               large fleet's slot decisions (DESIGN.md §12.3). Values
//               above ShardOptions::kMaxThreads (256) are rejected.
// Any other section name, and any key a section does not list, throws
// std::invalid_argument naming the section and the key: a typo fails
// instead of running on defaults.
#pragma once

#include <string>

#include "models/profile.h"
#include "sim/scenario.h"
#include "util/ini.h"

namespace leime::sim {

/// A parsed scenario file: the resolved model plus the simulator config
/// (partition designed via branch-and-bound on the fleet averages).
struct IniScenario {
  models::ModelProfile profile;
  ScenarioConfig config;
  core::ExitCombo designed_exits;
  double expected_tct = 0.0;  ///< the exit setting's cost estimate
  int replications = 1;

  // [runtime] knobs (plain values here so leime_sim does not depend on
  // leime_runtime; the caller maps them onto the executor).
  int threads = 1;            ///< executor workers for replications
  bool legacy_seeds = false;  ///< seed_mode = legacy: seeds base_seed + i
  std::string jsonl_path;     ///< per-run JSONL telemetry, "" = off
  std::string trace_path;     ///< chrome://tracing timeline, "" = off
  bool progress = false;      ///< live cell counter on stderr
};

/// Resolves a model name: one of the zoo shorthands (vgg16 | resnet34 |
/// inception | squeezenet) or a path to a leime-profile text file.
models::ModelProfile resolve_model_name(const std::string& name);

/// Builds the full scenario from parsed INI data. Throws
/// std::invalid_argument on missing sections/devices or bad values.
IniScenario load_scenario(const util::IniFile& ini);

/// Parses an [observability] section (throws on unknown keys).
ObsConfig parse_observability_section(const util::IniSection& section);

/// Parses an [slo] section (throws on unknown keys or out-of-range values
/// via obs::SloConfig::validate).
obs::SloConfig parse_slo_section(const util::IniSection& section);

/// Parses a [provenance] section (throws on unknown keys or out-of-range
/// values via obs::ProvenanceConfig::validate).
obs::ProvenanceConfig parse_provenance_section(const util::IniSection& section);

/// Parses a [topology] section (throws on unknown keys; range validation
/// against the device count happens later via TopologyConfig::validate).
net::TopologyConfig parse_topology_section(const util::IniSection& section);

/// Parses a [shards] section (throws on unknown keys or out-of-range
/// values via ShardOptions::validate).
ShardOptions parse_shards_section(const util::IniSection& section);

/// Applies command-line output-path overrides on top of an INI-derived
/// ObsConfig: a non-empty `metrics_out` / `trace_out` replaces the INI
/// value and implicitly enables the corresponding pillar (the precedence
/// scenario_runner documents: CLI > INI).
void apply_obs_overrides(ObsConfig& obs, const std::string& metrics_out,
                         const std::string& trace_out);

/// Convenience: parse + build from a file path.
IniScenario load_scenario_file(const std::string& path);

}  // namespace leime::sim
