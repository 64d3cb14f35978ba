// trace_viewer — replay a scenario with task tracing on and emit a
// chrome://tracing timeline of the simulated fleet.
//
// Usage:
//   trace_viewer <scenario.ini> [out.json] [--sample N]
//
//   trace_viewer configs/wild_faults.ini wild.json
//   # then open chrome://tracing (or https://ui.perfetto.dev) and load
//   # wild.json: one lane per simulated resource (device CPUs, uplinks,
//   # the edge GPU, the cloud), one bar per task phase, instant markers
//   # at fault events.
//
// The span timestamps are *simulated* seconds mapped to trace
// microseconds, so a 120 s scenario renders as a 120 "ms" timeline —
// zoom is free, the shapes are what matter. Fault windows read as gaps:
// when wild_faults.ini crashes the edge at t=40 the edge/gpu lane goes
// quiet, uplink bars stretch (retries), and the device CPU lanes thicken
// as traffic falls back to local execution. docs/TUTORIAL.md walks
// through reading one of these windows against the queue time-series.
//
// --sample N keeps 1-in-N tasks (deterministic by task id, default 1 =
// every task) so traces of long runs stay loadable.
//
// Waterfall mode ("where did the millisecond go", DESIGN.md §13):
//
//   trace_viewer --waterfall <attribution.jsonl> [--top N]
//
// reads the per-task attribution JSONL written by an
// [observability] attribution_out run (or bench/tab_latency_breakdown)
// and prints the fleet-total stage table plus the N slowest tasks as
// ASCII waterfalls — wait rendered as '.', service as '#', one bar per
// stage, fabric hops indented under their link stage, and the eq. 4-9
// prediction the policy acted on (when captured) printed alongside for
// an eyeball calibration check. EXPERIMENTS.md walks through a reading.
//
// Decision mode ("why did the policy pick that exit", DESIGN.md §14):
//
//   trace_viewer --decisions <decisions.jsonl>
//
// reads decision-provenance JSONL — either a [provenance] decisions_out
// window or an SLO-fire flight-recorder dump (dump_out) — and prints one
// row per recorded decision: the chosen exit combo (e1,e2,e3) or offload
// ratio x, which path produced it (cold / warm_start / direct),
// candidates explored vs pruned, the runner-up margin,
// and the oracle regret column when the record was oracle-sampled.
// Flight-recorder dumps render each SLO fire as its own banner with the
// open spans that were in flight at the alert.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/observer.h"
#include "sim/scenario_ini.h"
#include "sim/simulation.h"
#include "util/table.h"

namespace {

using namespace leime;

int run(const std::string& ini_path, const std::string& out_path,
        std::uint64_t sample) {
  auto scenario = sim::load_scenario_file(ini_path);

  // Attach our own recorder (rather than letting the simulation own one
  // via [observability]) so the span buffer stays inspectable after the
  // run and the INI's own output settings are left untouched.
  sim::ObsConfig obs;
  obs.trace_sample = sample;
  sim::RecordingObserver recorder(obs, scenario.config.devices.size());
  scenario.config.observer = &recorder;

  const auto result = sim::run_scenario(scenario.config);
  const auto& trace = recorder.trace();
  trace.write_chrome_trace_file(out_path);

  std::map<std::string, std::size_t> per_track;
  for (const auto& s : trace.spans()) ++per_track[s.track];
  std::map<std::string, std::size_t> per_kind;
  for (const auto& m : trace.marks()) ++per_kind[m.name];

  std::cout << scenario.profile.name() << " on " << ini_path << ": "
            << result.generated << " tasks generated, "
            << result.total_completed << " completed, mean TCT "
            << util::fmt(result.tct.mean, 3) << " s\n"
            << trace.spans().size() << " spans over " << per_track.size()
            << " tracks (1-in-" << sample << " tasks), "
            << trace.marks().size() << " fault marks\n\n";

  util::TablePrinter lanes({"track", "spans"});
  for (const auto& [track, n] : per_track)
    lanes.add_row({track, std::to_string(n)});
  lanes.print(std::cout);
  if (!per_kind.empty()) {
    std::cout << "\n";
    util::TablePrinter marks({"fault mark", "count"});
    for (const auto& [kind, n] : per_kind)
      marks.add_row({kind, std::to_string(n)});
    marks.print(std::cout);
  }
  std::cout << "\nwrote " << out_path
            << " -- load it in chrome://tracing or ui.perfetto.dev\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --waterfall: render attribution JSONL (obs::write_waterfalls_jsonl).
//
// The lines are our own writer's output — fixed key order, no whitespace —
// so a scanning extractor is enough; anything unrecognized is skipped
// rather than fatal, keeping the viewer usable on truncated files.

struct WfStage {
  std::string name;
  double wait = 0.0;
  double service = 0.0;
};

struct WfHop {
  std::string port;
  double wait = 0.0;
  double service = 0.0;
};

struct WfRow {
  std::uint64_t task = 0;
  std::string cls;
  int device = -1;
  double e2e = 0.0;
  double stall = 0.0;
  int block = 0;
  int retries = 0;
  bool offloaded = false;
  std::vector<WfStage> stages;  ///< writer order == end-to-end order
  std::vector<WfHop> hops;
  bool has_pred = false;
  double pred[5] = {0, 0, 0, 0, 0};  ///< local_wait..edge_service
  double pred_x = 0.0;
};

/// Value text right after `"key":`, searched from `from`; empty if absent.
std::string json_field(const std::string& line, const std::string& key,
                       std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle, from);
  if (pos == std::string::npos) return {};
  std::size_t v = pos + needle.size();
  if (v < line.size() && line[v] == '"') {
    const auto end = line.find('"', v + 1);
    if (end == std::string::npos) return {};
    return line.substr(v + 1, end - v - 1);
  }
  std::size_t end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']')
    ++end;
  return line.substr(v, end - v);
}

double json_num(const std::string& line, const std::string& key,
                std::size_t from = 0) {
  const auto text = json_field(line, key, from);
  return text.empty() ? 0.0 : std::strtod(text.c_str(), nullptr);
}

bool parse_waterfall_line(const std::string& line, WfRow* row) {
  if (line.compare(0, 8, "{\"task\":") != 0) return false;
  row->task = static_cast<std::uint64_t>(json_num(line, "task"));
  row->cls = json_field(line, "class");
  row->device = static_cast<int>(json_num(line, "device"));
  row->e2e = json_num(line, "e2e");
  row->stall = json_num(line, "stall");
  row->block = static_cast<int>(json_num(line, "block"));
  row->retries = static_cast<int>(json_num(line, "retries"));
  row->offloaded = json_field(line, "offloaded") == "true";

  const auto stages_at = line.find("\"stages\":{");
  if (stages_at != std::string::npos) {
    std::size_t p = stages_at + 10;
    while (p < line.size() && line[p] == '"') {
      const auto name_end = line.find('"', p + 1);
      if (name_end == std::string::npos) break;
      WfStage s;
      s.name = line.substr(p + 1, name_end - p - 1);
      s.wait = json_num(line, "wait", name_end);
      s.service = json_num(line, "service", name_end);
      row->stages.push_back(std::move(s));
      const auto obj_end = line.find('}', name_end);
      if (obj_end == std::string::npos) break;
      p = obj_end + 1;
      if (p < line.size() && line[p] == ',') ++p;
    }
  }
  const auto hops_at = line.find("\"hops\":[");
  if (hops_at != std::string::npos) {
    std::size_t p = hops_at + 8;
    while (p < line.size() && line[p] == '{') {
      WfHop h;
      h.port = json_field(line, "port", p);
      h.wait = json_num(line, "wait", p);
      h.service = json_num(line, "service", p);
      row->hops.push_back(std::move(h));
      const auto obj_end = line.find('}', p);
      if (obj_end == std::string::npos) break;
      p = obj_end + 1;
      if (p < line.size() && line[p] == ',') ++p;
    }
  }
  const auto pred_at = line.find("\"pred\":{");
  if (pred_at != std::string::npos) {
    row->has_pred = true;
    static const char* kComp[5] = {"local_wait", "local_service", "uplink",
                                   "edge_wait", "edge_service"};
    for (int i = 0; i < 5; ++i) row->pred[i] = json_num(line, kComp[i], pred_at);
    row->pred_x = json_num(line, "x", pred_at);
  }
  return true;
}

std::string ms(double seconds) { return util::fmt(seconds * 1e3, 1); }

/// One '.'-for-wait / '#'-for-service bar, `scale` seconds per column.
std::string bar(double wait, double service, double scale) {
  const auto cols = [&](double s) {
    return scale > 0.0 ? static_cast<int>(s / scale + 0.5) : 0;
  };
  return std::string(static_cast<std::size_t>(cols(wait)), '.') +
         std::string(static_cast<std::size_t>(cols(service)), '#');
}

int view_waterfalls(const std::string& jsonl_path, std::size_t top) {
  std::ifstream in(jsonl_path);
  if (!in) {
    std::cerr << "error: cannot open " << jsonl_path << "\n";
    return 1;
  }
  std::vector<WfRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    WfRow row;
    if (parse_waterfall_line(line, &row)) rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    std::cerr << "error: no waterfall rows in " << jsonl_path
              << " (expected obs::write_waterfalls_jsonl output)\n";
    return 1;
  }

  // Fleet totals, keyed by stage name in first-seen (end-to-end) order.
  std::vector<WfStage> totals;
  std::map<std::string, std::size_t> stage_counts;
  std::size_t with_hops = 0, with_pred = 0;
  std::map<std::string, std::size_t> per_class;
  for (const auto& r : rows) {
    ++per_class[r.cls];
    if (!r.hops.empty()) ++with_hops;
    if (r.has_pred) ++with_pred;
    for (const auto& s : r.stages) {
      ++stage_counts[s.name];
      auto it = std::find_if(totals.begin(), totals.end(),
                             [&](const WfStage& t) { return t.name == s.name; });
      if (it == totals.end()) {
        totals.push_back(s);
      } else {
        it->wait += s.wait;
        it->service += s.service;
      }
    }
  }
  std::cout << jsonl_path << ": " << rows.size() << " waterfalls over "
            << per_class.size() << " device classes (" << with_hops
            << " with fabric hops, " << with_pred
            << " with eq. 4-9 predictions)\n\n";
  util::TablePrinter fleet({"stage", "tasks", "wait_ms", "service_ms"});
  for (const auto& t : totals)
    fleet.add_row({t.name, std::to_string(stage_counts[t.name]), ms(t.wait),
                   ms(t.service)});
  fleet.print(std::cout);

  // The N slowest tasks, one waterfall each, shared scale so bar lengths
  // compare across tasks.
  std::vector<const WfRow*> slowest;
  for (const auto& r : rows) slowest.push_back(&r);
  std::stable_sort(slowest.begin(), slowest.end(),
                   [](const WfRow* a, const WfRow* b) { return a->e2e > b->e2e; });
  if (slowest.size() > top) slowest.resize(top);
  const double scale = slowest.front()->e2e / 48.0;  // ~48 cols for the worst
  std::cout << "\n" << slowest.size() << " slowest tasks ('.' wait, '#' "
            << "service, 1 col = " << ms(scale) << " ms):\n";
  for (const auto* r : slowest) {
    std::cout << "\ntask " << r->task << "  " << r->cls << "/dev" << r->device
              << "  e2e " << ms(r->e2e) << " ms  "
              << (r->offloaded ? "offloaded" : "local") << " exit-block "
              << r->block;
    if (r->retries > 0) std::cout << "  retries " << r->retries;
    std::cout << "\n";
    for (const auto& s : r->stages) {
      std::cout << "  " << s.name;
      for (std::size_t pad = s.name.size(); pad < 14; ++pad) std::cout << ' ';
      std::cout << ms(s.wait) << " + " << ms(s.service) << " ms  "
                << bar(s.wait, s.service, scale) << "\n";
    }
    for (const auto& h : r->hops)
      std::cout << "    hop " << h.port << ": " << ms(h.wait) << " + "
                << ms(h.service) << " ms\n";
    if (r->stall > scale / 2.0)
      std::cout << "  stall         " << ms(r->stall) << " ms  "
                << bar(r->stall, 0.0, scale) << "\n";
    if (r->has_pred)
      std::cout << "  predicted (x=" << util::fmt(r->pred_x, 2) << "): local "
                << ms(r->pred[0]) << " + " << ms(r->pred[1]) << ", uplink "
                << ms(r->pred[2]) << ", edge " << ms(r->pred[3]) << " + "
                << ms(r->pred[4]) << " ms\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --decisions: render decision-provenance JSONL (obs::write_decisions_jsonl
// windows or obs::write_flight_dump postmortems). Same scanning-extractor
// stance as --waterfall: our own writer's fixed key order, unknown lines
// skipped so truncated dumps still render.

struct DecisionRow {
  std::uint64_t seq = 0;
  double t = -1.0;
  int device = -1;
  std::string cls;
  std::string kind;
  std::string path;
  std::string choice;  ///< "(e1,e2,e3)" or "x=0.42"
  double cost = 0.0;
  std::uint64_t explored = 0;
  std::uint64_t pruned = 0;
  bool has_margin = false;
  double margin = 0.0;
  bool has_regret = false;
  double regret = 0.0;
};

/// True when `key` holds a number (not the literal null) in `line`.
bool json_opt_num(const std::string& line, const std::string& key,
                  double* value) {
  const auto text = json_field(line, key);
  if (text.empty() || text == "null") return false;
  *value = std::strtod(text.c_str(), nullptr);
  return true;
}

/// Costs print in the decision's own objective units: expected TCT seconds
/// for exit_setting rows, the eq. 19 drift-plus-penalty value for offload
/// rows. Margin and regret share the row's units.
void print_decision_table(const std::vector<DecisionRow>& rows) {
  util::TablePrinter t({"seq", "t(s)", "kind", "path", "who", "choice",
                        "cost", "explored", "pruned", "margin", "regret"});
  for (const auto& r : rows) {
    std::string who = r.cls;
    if (r.device >= 0) who += "/dev" + std::to_string(r.device);
    t.add_row({std::to_string(r.seq),
               r.t < 0.0 ? std::string("-") : util::fmt(r.t, 2), r.kind,
               r.path, who, r.choice, util::fmt(r.cost, 3),
               std::to_string(r.explored), std::to_string(r.pruned),
               r.has_margin ? util::fmt(r.margin, 3) : std::string("-"),
               r.has_regret ? util::fmt(r.regret, 4) : std::string("-")});
  }
  t.print(std::cout);
}

int view_decisions(const std::string& jsonl_path) {
  std::ifstream in(jsonl_path);
  if (!in) {
    std::cerr << "error: cannot open " << jsonl_path << "\n";
    return 1;
  }
  std::vector<DecisionRow> rows;
  std::size_t alerts = 0, spans = 0, oracle_rows = 0;
  double regret_sum = 0.0, regret_max = 0.0;
  std::map<std::string, std::size_t> per_path;
  std::string line;
  const auto flush_rows = [&] {
    if (rows.empty()) return;
    print_decision_table(rows);
    rows.clear();
  };
  while (std::getline(in, line)) {
    const auto type = json_field(line, "type");
    if (type == "decision") {
      DecisionRow r;
      r.seq = static_cast<std::uint64_t>(json_num(line, "seq"));
      r.t = json_num(line, "t");
      r.device = static_cast<int>(json_num(line, "device"));
      r.cls = json_field(line, "class");
      r.kind = json_field(line, "kind");
      r.path = json_field(line, "path");
      if (r.kind == "offload") {
        r.choice = "x=" + util::fmt(json_num(line, "x"), 2);
      } else {
        r.choice = "(" + json_field(line, "e1") + "," + json_field(line, "e2") +
                   "," + json_field(line, "e3") + ")";
      }
      r.cost = json_num(line, "cost");
      r.explored = static_cast<std::uint64_t>(json_num(line, "explored"));
      r.pruned = static_cast<std::uint64_t>(json_num(line, "pruned"));
      r.has_margin = json_opt_num(line, "margin", &r.margin);
      r.has_regret = json_opt_num(line, "regret", &r.regret);
      if (r.has_regret) {
        ++oracle_rows;
        regret_sum += r.regret;
        regret_max = std::max(regret_max, r.regret);
      }
      ++per_path[r.path];
      rows.push_back(std::move(r));
    } else if (type == "alert") {
      // A flight-recorder dump: banner, then its window renders below.
      flush_rows();
      ++alerts;
      if (alerts > 1) std::cout << "\n";
      std::cout << "=== SLO fire #" << alerts << " at t="
                << util::fmt(json_num(line, "t"), 2) << " s  class "
                << json_field(line, "class") << "  miss_rate "
                << util::fmt(json_num(line, "miss_rate"), 3) << "  burn "
                << util::fmt(json_num(line, "burn"), 2) << "  window "
                << static_cast<std::uint64_t>(json_num(line, "window_tasks"))
                << " tasks ===\n";
    } else if (type == "open_span") {
      flush_rows();
      ++spans;
      std::cout << "  in flight: task "
                << static_cast<std::uint64_t>(json_num(line, "task"))
                << "  dev" << static_cast<int>(json_num(line, "device"))
                << "  " << json_field(line, "phase") << " on "
                << json_field(line, "track") << " since t="
                << util::fmt(json_num(line, "t_begin"), 2) << " s\n";
    }
  }
  flush_rows();
  const std::size_t total =
      oracle_rows + per_path.size();  // guard: anything parsed at all?
  if (total == 0 && alerts == 0 && spans == 0) {
    std::cerr << "error: no decision records in " << jsonl_path
              << " (expected [provenance] decisions_out or dump_out JSONL)\n";
    return 1;
  }
  std::cout << "\n";
  bool first = true;
  std::size_t decisions = 0;
  for (const auto& [path, n] : per_path) {
    decisions += n;
    std::cout << (first ? "paths: " : ", ") << path << " " << n;
    first = false;
  }
  if (!first) std::cout << "\n";
  std::cout << decisions << " decisions";
  if (alerts > 0) std::cout << ", " << alerts << " SLO fire(s)";
  if (spans > 0) std::cout << ", " << spans << " open span(s)";
  if (oracle_rows > 0)
    std::cout << "; oracle on " << oracle_rows << ": mean regret "
              << util::fmt(regret_sum / static_cast<double>(oracle_rows), 4)
              << ", max " << util::fmt(regret_max, 4);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string ini_path, out_path, waterfall_path, decisions_path;
    std::uint64_t sample = 1;
    std::size_t top = 10;
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--waterfall") {
        if (a + 1 >= argc)
          throw std::invalid_argument("--waterfall needs a JSONL path");
        waterfall_path = argv[++a];
      } else if (arg == "--decisions") {
        if (a + 1 >= argc)
          throw std::invalid_argument("--decisions needs a JSONL path");
        decisions_path = argv[++a];
      } else if (arg == "--top") {
        if (a + 1 >= argc) throw std::invalid_argument("--top needs a number");
        const long long n = std::stoll(argv[++a]);
        if (n < 1) throw std::invalid_argument("--top must be >= 1");
        top = static_cast<std::size_t>(n);
      } else if (arg == "--sample") {
        if (a + 1 >= argc)
          throw std::invalid_argument("--sample needs a number");
        const long long n = std::stoll(argv[++a]);
        if (n < 1) throw std::invalid_argument("--sample must be >= 1");
        sample = static_cast<std::uint64_t>(n);
      } else if (!arg.empty() && arg[0] == '-') {
        throw std::invalid_argument("unknown flag " + arg);
      } else if (ini_path.empty()) {
        ini_path = arg;
      } else if (out_path.empty()) {
        out_path = arg;
      } else {
        throw std::invalid_argument("unexpected argument " + arg);
      }
    }
    if (!waterfall_path.empty()) return view_waterfalls(waterfall_path, top);
    if (!decisions_path.empty()) return view_decisions(decisions_path);
    if (ini_path.empty()) {
      std::cerr << "usage: trace_viewer <scenario.ini> [out.json] "
                   "[--sample N]\n"
                   "       trace_viewer --waterfall <attribution.jsonl> "
                   "[--top N]\n"
                   "       trace_viewer --decisions <decisions.jsonl>\n";
      return 2;
    }
    if (out_path.empty()) out_path = "trace.json";
    return run(ini_path, out_path, sample);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
