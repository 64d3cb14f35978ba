#include "sim/scenario_ini.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/simulation.h"

namespace leime::sim {
namespace {

constexpr const char* kScenario = R"(
[scenario]
model = squeezenet
policy = cap_based
duration = 30
warmup = 3
seed = 9
replications = 2
reallocation_period = 10
shared_uplink_mbps = 12
result_bytes = 1000

[edge]
gflops = 40
cloud_tflops = 2
cloud_mbps = 80
cloud_latency_ms = 25

[device]
gflops = 0.6
rate = 0.4
uplink_mbps = 8
uplink_latency_ms = 30
difficulty = 1.5

[device]
gflops = 6
rate = 0.8

[runtime]
threads = 4
seed_mode = legacy
jsonl = out/runs.jsonl
trace = out/cells.trace.json
progress = true
)";

TEST(ScenarioIni, ParsesEveryField) {
  const auto s = load_scenario(util::IniFile::parse_string(kScenario));
  EXPECT_EQ(s.profile.name(), "SqueezeNet-1.0");
  EXPECT_EQ(s.replications, 2);
  const auto& cfg = s.config;
  EXPECT_EQ(cfg.policy, "cap_based");
  EXPECT_DOUBLE_EQ(cfg.duration, 30.0);
  EXPECT_DOUBLE_EQ(cfg.warmup, 3.0);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.reallocation_period, 10.0);
  EXPECT_DOUBLE_EQ(cfg.shared_uplink_bw, util::mbps(12.0));
  EXPECT_DOUBLE_EQ(cfg.result_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(cfg.edge_flops, util::gflops(40.0));
  EXPECT_DOUBLE_EQ(cfg.cloud_flops, util::tflops(2.0));
  ASSERT_EQ(cfg.devices.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.devices[0].flops, util::gflops(0.6));
  EXPECT_DOUBLE_EQ(cfg.devices[0].difficulty, 1.5);
  EXPECT_DOUBLE_EQ(cfg.devices[1].mean_rate, 0.8);
  // Defaults filled for the second device.
  EXPECT_DOUBLE_EQ(cfg.devices[1].uplink_bw, util::mbps(10.0));
  // The partition was actually designed.
  EXPECT_GT(cfg.partition.mu1, 0.0);
  EXPECT_GE(s.designed_exits.e1, 1);
  EXPECT_GT(s.expected_tct, 0.0);
  // [runtime] knobs.
  EXPECT_EQ(s.threads, 4);
  EXPECT_TRUE(s.legacy_seeds);
  EXPECT_EQ(s.jsonl_path, "out/runs.jsonl");
  EXPECT_EQ(s.trace_path, "out/cells.trace.json");
  EXPECT_TRUE(s.progress);
}

TEST(ScenarioIni, RuntimeSectionIsOptionalAndValidated) {
  const char* no_runtime =
      "[scenario]\nmodel = squeezenet\n[edge]\ngflops = 50\n"
      "[device]\nrate = 1\n";
  const auto s = load_scenario(util::IniFile::parse_string(no_runtime));
  EXPECT_EQ(s.threads, 1);
  EXPECT_FALSE(s.legacy_seeds);
  EXPECT_TRUE(s.jsonl_path.empty());

  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   "[scenario]\nmodel = squeezenet\n[edge]\ngflops = 50\n"
                   "[device]\nrate = 1\n[runtime]\nseed_mode = bogus\n")),
               std::invalid_argument);
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   "[scenario]\nmodel = squeezenet\n[edge]\ngflops = 50\n"
                   "[device]\nrate = 1\n[runtime]\nthreads = -2\n")),
               std::invalid_argument);
}

TEST(ScenarioIni, LoadedScenarioRuns) {
  const auto s = load_scenario(util::IniFile::parse_string(kScenario));
  const auto r = run_scenario(s.config);
  EXPECT_GT(r.generated, 5u);
}

TEST(ScenarioIni, Validation) {
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   "[scenario]\nmodel = inception\n[edge]\ngflops = 50\n")),
               std::invalid_argument);  // no devices
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          "[scenario]\nreplications = 0\n[edge]\ngflops = "
          "50\n[device]\nrate = 1\n")),
      std::invalid_argument);
  EXPECT_THROW(resolve_model_name("/nonexistent/profile.txt"),
               std::runtime_error);
  EXPECT_EQ(resolve_model_name("vgg16").name(), "VGG-16");
  EXPECT_EQ(resolve_model_name("resnet34").name(), "ResNet-34");
}

constexpr const char* kFleet =
    "[scenario]\nmodel = squeezenet\npolicy = E-only\nduration = 20\n"
    "seed = 5\n[edge]\ngflops = 50\n[device]\nrate = 1\n[device]\nrate = 1\n";

TEST(ScenarioIni, FaultsSectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[faults]\n"
      "link_outage_windows = d0:3-6\n"
      "edge_down_windows = 5-12, 75-\n"
      "edge_crash_rate = 0.002\n"
      "churn = 1:8-15\n"
      "detection_timeout_s = 1\n"
      "task_timeout_s = 4\n"
      "max_retries = 3\n"));
  const auto& plan = s.config.faults;
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.link.windows.size(), 1u);
  EXPECT_EQ(plan.link.windows[0].device, 0);
  ASSERT_EQ(plan.edge.windows.size(), 2u);
  EXPECT_FALSE(std::isfinite(plan.edge.windows[1].end));
  EXPECT_DOUBLE_EQ(plan.edge.rate, 0.002);
  ASSERT_EQ(plan.churn.events.size(), 1u);
  EXPECT_EQ(plan.churn.events[0].device, 1);
  EXPECT_DOUBLE_EQ(plan.degradation.detection_timeout, 1.0);
  EXPECT_DOUBLE_EQ(plan.degradation.task_timeout, 4.0);
  EXPECT_EQ(plan.degradation.max_retries, 3);
  // The loaded scenario actually runs, with fault telemetry.
  const auto r = run_scenario(s.config);
  EXPECT_EQ(r.generated, r.total_completed + r.in_flight);
  EXPECT_GT(r.faults.failed_over, 0u);
}

TEST(ScenarioIni, FaultsSectionValidation) {
  const auto load = [](const std::string& faults) {
    return load_scenario(
        util::IniFile::parse_string(std::string(kFleet) + faults));
  };
  // Unknown keys name themselves and list the valid spelling.
  try {
    load("[faults]\nedge_crash_ratee = 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'edge_crash_ratee'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("edge_crash_rate"), std::string::npos) << what;
  }
  // Malformed windows, inverted ranges and out-of-fleet devices all throw.
  EXPECT_THROW(load("[faults]\nedge_down_windows = 45-30\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[faults]\nlink_outage_windows = 40-\n"),
               std::invalid_argument);  // links must heal
  EXPECT_THROW(load("[faults]\nlink_outage_windows = d7:40-50\n"),
               std::invalid_argument);  // fleet has 2 devices
  EXPECT_THROW(load("[faults]\nchurn = 5:30-60\n"), std::invalid_argument);
  EXPECT_THROW(load("[faults]\nchurn = 1:60-40\n"), std::invalid_argument);
  EXPECT_THROW(load("[faults]\nedge_crash_rate = -1\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[faults]\ndetection_timeout_s = 0\n"),
               std::invalid_argument);
}

TEST(ScenarioIni, EmptyFaultsSectionIsBitIdenticalToNone) {
  // Satellite contract: a present-but-empty [faults] section must not
  // change a single bit of the result.
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  const auto empty = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[faults]\nlink_outage_windows =\nchurn =\n"));
  EXPECT_EQ(empty.config.faults, FaultPlan{});
  EXPECT_FALSE(empty.config.faults.enabled());
  const auto a = run_scenario(bare.config);
  const auto b = run_scenario(empty.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_DOUBLE_EQ(a.tct.mean, b.tct.mean);
  EXPECT_DOUBLE_EQ(a.tct.p95, b.tct.p95);
  EXPECT_DOUBLE_EQ(a.mean_offload_ratio, b.mean_offload_ratio);
}

TEST(ScenarioIni, ObservabilitySectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[observability]\n"
      "metrics = true\n"
      "trace_sample = 8\n"
      "timeseries = true\n"
      "metrics_out = out/run.prom\n"
      "metrics_jsonl = out/run.metrics.jsonl\n"
      "trace_out = out/run.trace.json\n"
      "timeseries_out = out/run.series.csv\n"));
  const auto& obs = s.config.obs;
  EXPECT_TRUE(obs.metrics);
  EXPECT_EQ(obs.trace_sample, 8u);
  EXPECT_TRUE(obs.timeseries);
  EXPECT_EQ(obs.metrics_out, "out/run.prom");
  EXPECT_EQ(obs.metrics_jsonl, "out/run.metrics.jsonl");
  EXPECT_EQ(obs.trace_out, "out/run.trace.json");
  EXPECT_EQ(obs.timeseries_out, "out/run.series.csv");
  EXPECT_TRUE(obs.enabled());
}

TEST(ScenarioIni, ObservabilityOmittedOrEmptyStaysDisabled) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.obs.enabled());
  const auto empty = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[observability]\nmetrics_out =\n"));
  EXPECT_FALSE(empty.config.obs.enabled());
}

TEST(ScenarioIni, ObservabilityValidation) {
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   std::string(kFleet) + "[observability]\ntypo_key = 1\n")),
               std::invalid_argument);
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          std::string(kFleet) + "[observability]\ntrace_sample = -1\n")),
      std::invalid_argument);
}

TEST(ScenarioIni, ProvenanceSectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[provenance]\n"
      "sample_n = 4\n"
      "ring_capacity = 32\n"
      "oracle_sample_n = 8\n"
      "decisions_out = out/decisions.jsonl\n"
      "dump_out = out/flight.jsonl\n"));
  const auto& prov = s.config.obs.provenance;
  EXPECT_EQ(prov.sample_n, 4u);
  EXPECT_EQ(prov.ring_capacity, 32u);
  EXPECT_EQ(prov.oracle_sample_n, 8u);
  EXPECT_EQ(prov.decisions_out, "out/decisions.jsonl");
  EXPECT_EQ(prov.dump_out, "out/flight.jsonl");
  EXPECT_TRUE(prov.enabled());
  EXPECT_TRUE(s.config.obs.enabled());  // provenance alone turns obs on

  // A bare output path implies 1-in-1 sampling, like trace_out.
  const auto implied = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[provenance]\ndump_out = flight.jsonl\n"));
  EXPECT_EQ(implied.config.obs.provenance.effective_sample_n(), 1u);
}

TEST(ScenarioIni, ProvenanceOmittedOrEmptyStaysDisabled) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.obs.provenance.enabled());
  // sample_n = 0 with no outputs: section parses but pillar stays off,
  // and the remaining keys are still typo-checked.
  const auto off = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[provenance]\nsample_n = 0\ndecisions_out =\n"));
  EXPECT_FALSE(off.config.obs.provenance.enabled());
  EXPECT_FALSE(off.config.obs.enabled());
}

TEST(ScenarioIni, ProvenanceValidation) {
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   std::string(kFleet) + "[provenance]\ntypo_key = 1\n")),
               std::invalid_argument);
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   std::string(kFleet) + "[provenance]\nsample_n = -1\n")),
               std::invalid_argument);
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          std::string(kFleet) + "[provenance]\nring_capacity = 0\n")),
      std::invalid_argument);
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          std::string(kFleet) + "[provenance]\noracle_sample_n = -2\n")),
      std::invalid_argument);
}

TEST(ScenarioIni, CliObsOverridesBeatIniValues) {
  auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[observability]\nmetrics_out = ini.prom\ntrace_out = ini.json\n"
      "timeseries_out = ini.csv\n"));
  // Non-empty CLI values win; empty CLI values keep the INI ones.
  apply_obs_overrides(s.config.obs, "cli.prom", "");
  EXPECT_EQ(s.config.obs.metrics_out, "cli.prom");
  EXPECT_EQ(s.config.obs.trace_out, "ini.json");
  EXPECT_EQ(s.config.obs.timeseries_out, "ini.csv");
  apply_obs_overrides(s.config.obs, "", "cli.json");
  EXPECT_EQ(s.config.obs.metrics_out, "cli.prom");
  EXPECT_EQ(s.config.obs.trace_out, "cli.json");
}

TEST(ScenarioIni, FaultsRoundTripThroughSerialize) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[faults]\nedge_down_windows = 30-45\nchurn = 1:60-95\n"
      "task_timeout_s = 2.5\n"));
  const auto text = serialize_faults_ini(s.config.faults);
  const auto reparsed = parse_faults_section(
      *util::IniFile::parse_string(text).find("faults"));
  EXPECT_EQ(reparsed, s.config.faults);
}

TEST(ScenarioIni, ApOutageWindowsParseAndRoundTrip) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[topology]\naps = 2\nap_mbps = 40\n"
      "[faults]\nap_outage_windows = a0:10-20, a1:30-35\n"));
  const auto& plan = s.config.faults;
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.ap_windows.size(), 2u);
  EXPECT_EQ(plan.ap_windows[0].device, 0);  // device field = AP index
  EXPECT_DOUBLE_EQ(plan.ap_windows[0].start, 10.0);
  EXPECT_EQ(plan.ap_windows[1].device, 1);
  EXPECT_DOUBLE_EQ(plan.ap_windows[1].end, 35.0);

  const auto text = serialize_faults_ini(plan);
  EXPECT_NE(text.find("ap_outage_windows"), std::string::npos);
  const auto reparsed = parse_faults_section(
      *util::IniFile::parse_string(text).find("faults"));
  EXPECT_EQ(reparsed, plan);
}

TEST(ScenarioIni, TopologySectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[topology]\n"
      "aps = 2\n"
      "ap_mbps = 40\n"
      "ap_latency_ms = 3\n"
      "device_map = 1, 0\n"
      "queue_limit_kb = 4096\n"));
  const auto& topo = s.config.topology;
  EXPECT_TRUE(topo.enabled());
  EXPECT_EQ(topo.aps, 2);
  EXPECT_DOUBLE_EQ(topo.ap_bandwidth, util::mbps(40.0));
  EXPECT_DOUBLE_EQ(topo.ap_latency, util::ms(3.0));
  EXPECT_EQ(topo.device_map, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(topo.queue_limit_bytes, 4096.0 * 1024.0);
  // The loaded scenario runs in fabric mode and reports fabric stats.
  const auto r = run_scenario(s.config);
  EXPECT_TRUE(r.net.active);
  EXPECT_GT(r.net.delivered, 0u);
}

TEST(ScenarioIni, TopologyOmittedOrDisabledKeepsTheFlatPath) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.topology.enabled());
  const auto off = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[topology]\naps = 0\n"));
  EXPECT_FALSE(off.config.topology.enabled());
  EXPECT_EQ(off.config.topology, net::TopologyConfig{});
  const auto a = run_scenario(bare.config);
  const auto b = run_scenario(off.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_DOUBLE_EQ(a.tct.mean, b.tct.mean);
  EXPECT_FALSE(b.net.active);
}

TEST(ScenarioIni, TopologySectionValidation) {
  const auto load = [](const std::string& extra) {
    return load_scenario(
        util::IniFile::parse_string(std::string(kFleet) + extra));
  };
  try {
    load("[topology]\naps = 1\nap_mpbs = 10\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'ap_mpbs'"), std::string::npos) << what;
    EXPECT_NE(what.find("ap_mbps"), std::string::npos) << what;
  }
  EXPECT_THROW(load("[topology]\naps = -1\n"), std::invalid_argument);
  EXPECT_THROW(load("[topology]\naps = 1\nap_mbps = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[topology]\naps = 1\nap_latency_ms = -2\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[topology]\naps = 2\ndevice_map = 0\n"),
               std::invalid_argument);  // fleet has 2 devices
  EXPECT_THROW(load("[topology]\naps = 2\ndevice_map = 0, 5\n"),
               std::invalid_argument);  // AP 5 out of range
  EXPECT_THROW(load("[topology]\naps = 2\ndevice_map = 0, x\n"),
               std::invalid_argument);  // not an index
  // The two shared-medium modes cannot be combined.
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          "[scenario]\nmodel = squeezenet\nshared_uplink_mbps = 10\n"
          "[edge]\ngflops = 50\n[device]\nrate = 1\n[device]\nrate = 1\n"
          "[topology]\naps = 1\n")),
      std::invalid_argument);
  // AP outage windows need an enabled topology and an in-range AP.
  EXPECT_THROW(run_scenario(
                   load("[faults]\nap_outage_windows = a0:5-10\n").config),
               std::invalid_argument);
  EXPECT_THROW(
      run_scenario(load("[topology]\naps = 1\n"
                        "[faults]\nap_outage_windows = a3:5-10\n")
                       .config),
      std::invalid_argument);
}

TEST(ScenarioIni, RemovedPolicySectionIsRejected) {
  // The [policy] section configured exit-setting and offload fast paths
  // that have been removed. A stale section must fail naming the section
  // and why, not merely as an unknown one.
  for (const char* body :
       {"[policy]\n", "[policy]\nwarm_start = true\n",
        "[policy]\nunknown_key = 1\n"}) {
    SCOPED_TRACE(body);
    try {
      load_scenario(util::IniFile::parse_string(std::string(kFleet) + body));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("[policy]"), std::string::npos) << what;
      EXPECT_NE(what.find("removed"), std::string::npos) << what;
    }
  }
}

TEST(ScenarioIni, UnknownSectionsAndKeysAreRejected) {
  // A typo must fail naming the section and the key, never load and run
  // on defaults.
  const std::string base =
      "[scenario]\nduration = 5\n[edge]\ngflops = 40\n[device]\nrate = 1\n";
  const struct {
    std::string text;
    const char* section;
    const char* key;
  } cases[] = {
      {base + "[observabilty]\nmetrics = true\n", "[observabilty]", nullptr},
      {base + "[shard]\nshards = 2\n", "[shard]", nullptr},
      {"[scenario]\nduraton = 5\n[edge]\n[device]\n", "[scenario]",
       "duraton"},
      {"[scenario]\n[edge]\ngflop = 40\n[device]\n", "[edge]", "gflop"},
      {"[scenario]\n[edge]\n[device]\ngflop = 1\n", "[device]", "gflop"},
      {base + "[device]\nrate = 1\nclas = cam\n", "[device]", "clas"},
      {base + "[runtime]\nthread = 2\n", "[runtime]", "thread"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    try {
      load_scenario(util::IniFile::parse_string(c.text));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.section), std::string::npos) << what;
      if (c.key)
        EXPECT_NE(what.find(std::string("unknown key '") + c.key + "'"),
                  std::string::npos)
            << what;
      else
        EXPECT_NE(what.find("unknown section"), std::string::npos) << what;
    }
  }
  // The same file without the typos loads.
  EXPECT_NO_THROW(load_scenario(util::IniFile::parse_string(base)));
}

TEST(ScenarioIni, ShippedConfigsLoad) {
  for (const char* name : {"campus.ini", "wild_faults.ini",
                           "wild_topology.ini"}) {
    SCOPED_TRACE(name);
    EXPECT_NO_THROW(
        load_scenario_file(std::string(LEIME_CONFIG_DIR) + "/" + name));
  }
}

TEST(ScenarioIni, IntKeysOutsideIntRangeAreRejected) {
  // 4294967297 = 2^32 + 1: a plain narrowing would turn it into 1, a valid
  // value, so each of these loads used to succeed silently.
  const auto load = [](const std::string& text) {
    return load_scenario(util::IniFile::parse_string(text));
  };
  const std::string fleet_tail =
      "[edge]\ngflops = 50\n[device]\nrate = 1\n[device]\nrate = 1\n";
  EXPECT_THROW(
      load("[scenario]\nmodel = squeezenet\nreplications = 4294967297\n" +
           fleet_tail),
      std::invalid_argument);
  EXPECT_THROW(load(std::string(kFleet) + "[topology]\naps = 4294967297\n"),
               std::invalid_argument);
  EXPECT_THROW(load(std::string(kFleet) + "[shards]\nthreads = 4294967297\n"),
               std::invalid_argument);
  EXPECT_THROW(load(std::string(kFleet) + "[runtime]\nthreads = 4294967297\n"),
               std::invalid_argument);
  EXPECT_THROW(
      load(std::string(kFleet) + "[faults]\nmax_retries = 4294967297\n"),
      std::invalid_argument);
  // Values no integer type holds throw too (see Ini.GetIntRejects...).
  EXPECT_THROW(load(std::string(kFleet) + "[runtime]\nthreads = 1e30\n"),
               std::invalid_argument);
  EXPECT_THROW(load(std::string(kFleet) + "[shards]\nthreads = nan\n"),
               std::invalid_argument);
  EXPECT_THROW(load(std::string(kFleet) + "[topology]\naps = inf\n"),
               std::invalid_argument);
}

TEST(ScenarioIni, ShardsSectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[shards]\n"
      "shards = 4\n"
      "threads = 2\n"
      "window_ms = 10\n"));
  const auto& sh = s.config.shards;
  EXPECT_EQ(sh.shards, 4u);
  EXPECT_EQ(sh.threads, 2);
  EXPECT_DOUBLE_EQ(sh.window_s, util::ms(10.0));
  EXPECT_TRUE(sh.enabled());
}

TEST(ScenarioIni, ShardsOmittedOrEmptyStaysSingleQueue) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.shards.enabled());
  const auto empty = load_scenario(
      util::IniFile::parse_string(std::string(kFleet) + "[shards]\n"));
  EXPECT_FALSE(empty.config.shards.enabled());
  EXPECT_EQ(empty.config.shards.shards, 1u);
  EXPECT_EQ(empty.config.shards.threads, 0);
  EXPECT_DOUBLE_EQ(empty.config.shards.window_s, 0.0);
}

TEST(ScenarioIni, ThreadsWithoutShardsParsesAndKeepsResults) {
  // At shards = 1, threads sizes the parallel decision pool (DESIGN.md
  // §12.3): an execution choice that leaves every result unchanged.
  const auto off = load_scenario(util::IniFile::parse_string(kFleet));
  const auto on = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[shards]\nthreads = 3\n"));
  EXPECT_FALSE(on.config.shards.enabled());
  EXPECT_EQ(on.config.shards.threads, 3);
  const auto a = run_scenario(off.config);
  const auto b = run_scenario(on.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.tct.mean, b.tct.mean);
  EXPECT_EQ(a.tct.p95, b.tct.p95);
  EXPECT_EQ(a.mean_offload_ratio, b.mean_offload_ratio);
}

TEST(ScenarioIni, ShardsSectionValidation) {
  auto load = [](const std::string& extra) {
    return load_scenario(
        util::IniFile::parse_string(std::string(kFleet) + extra));
  };
  try {
    load("[shards]\nshard = 4\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'shard'"), std::string::npos) << what;
    EXPECT_NE(what.find("window_ms"), std::string::npos) << what;
  }
  EXPECT_THROW(load("[shards]\nshards = 0\n"), std::invalid_argument);
  EXPECT_THROW(load("[shards]\nshards = -2\n"), std::invalid_argument);
  EXPECT_THROW(load("[shards]\nthreads = -1\n"), std::invalid_argument);
  // threads starts that many OS threads: capped (ShardOptions::kMaxThreads).
  // Loading only parses and validates, so no thread is started here.
  EXPECT_THROW(load("[shards]\nthreads = 100000\n"), std::invalid_argument);
  EXPECT_THROW(load("[shards]\nthreads = 257\n"), std::invalid_argument);
  EXPECT_EQ(load("[shards]\nthreads = 256\n").config.shards.threads, 256);
  EXPECT_THROW(load("[shards]\nwindow_ms = -5\n"), std::invalid_argument);
  // Sharded execution rejects configurations outside its contract at run
  // time (validate_sharded in simulation.cpp), with an error naming the
  // escape hatch.
  auto unsupported = load("[shards]\nshards = 2\n");
  unsupported.config.cloud_fifo = true;
  try {
    run_scenario(unsupported.config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[shards]"), std::string::npos) << what;
    EXPECT_NE(what.find("shards = 1"), std::string::npos) << what;
  }
}

TEST(ScenarioIni, ShardsLoadedScenarioMatchesSingleQueue) {
  // The INI-level face of the sharding determinism contract: a fleet
  // loaded with [shards] on runs to the same results as the same fleet
  // without the section.
  const auto off = load_scenario(util::IniFile::parse_string(kFleet));
  const auto on = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[shards]\nshards = 2\nthreads = 2\n"));
  const auto a = run_scenario(off.config);
  const auto b = run_scenario(on.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_DOUBLE_EQ(a.tct.mean, b.tct.mean);
  EXPECT_DOUBLE_EQ(a.tct.p95, b.tct.p95);
  EXPECT_DOUBLE_EQ(a.mean_offload_ratio, b.mean_offload_ratio);
}

}  // namespace
}  // namespace leime::sim
