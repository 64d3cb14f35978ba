// Exit-setting baselines from the paper's evaluation:
//   DDNN (§IV-A (1))  — exits where intermediate data is small AND exit
//                       probability is high (score = σ_i / d_i);
//   Edgent (§IV-A (3)) — exits where intermediate data is smallest;
//   Neurosurgeon (§IV-A (2)) — no early exits; partition points copied from
//                       LEIME (build via core::make_no_exit_partition);
//   min_comp / min_tran / mean (Fig. 10a) — minimise pre-exit computation,
//                       minimise expected transmitted bytes, and evenly
//                       spaced exits.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "models/profile.h"
#include "policy/engine.h"

namespace leime::baselines {

/// DDNN heuristic: e1 maximises σ_i/d_i over [1, m-2]; e2 maximises it over
/// (e1, m-1].
core::ExitCombo ddnn_exit_setting(const models::ModelProfile& profile);

/// Edgent heuristic: e1 has the smallest intermediate tensor in [1, m-2];
/// e2 the smallest in (e1, m-1].
core::ExitCombo edgent_exit_setting(const models::ModelProfile& profile);

/// Minimal computation before exits: e1 = 1, e2 = 2.
core::ExitCombo min_comp_exit_setting(const models::ModelProfile& profile);

/// Minimises the expected transmitted bytes
/// (1-σ_e1)·d_e1 + (1-σ_e2)·d_e2 over all pairs.
core::ExitCombo min_tran_exit_setting(const models::ModelProfile& profile);

/// Evenly spaced: e1 ≈ m/3, e2 ≈ 2m/3.
core::ExitCombo mean_exit_setting(const models::ModelProfile& profile);

/// Neurosurgeon's *native* optimizer (Kang et al., ASPLOS'17): the
/// no-early-exit partition (r1, r2) minimising end-to-end latency under the
/// cost model. The paper instead pins Neurosurgeon to LEIME's cut points
/// (§IV-A); both variants are available — the benches use the paper's.
struct NeurosurgeonPartition {
  int r1 = 0;  ///< last unit on the device (0 = none)
  int r2 = 0;  ///< last unit on the edge (m = no cloud tier)
  double latency = 0.0;
};
NeurosurgeonPartition neurosurgeon_native_partition(
    const core::CostModel& cost_model);

enum class ExitStrategy {
  kLeime,    ///< branch-and-bound on the cost model
  kDdnn,
  kEdgent,
  kMinComp,
  kMinTran,
  kMean,
};

std::string to_string(ExitStrategy strategy);

/// Unified selector; kLeime requires the cost model's environment, the
/// heuristics ignore it.
core::ExitCombo select_exits(ExitStrategy strategy,
                             const core::CostModel& cost_model);

/// Engine-routed selector for callers that sweep many environments: kLeime
/// goes through `engine` (warm start via `incumbent` when the engine enables
/// it; identical result either way), the heuristics are unchanged.
core::ExitCombo select_exits(ExitStrategy strategy,
                             const core::CostModel& cost_model,
                             policy::Engine& engine,
                             policy::Incumbent* incumbent = nullptr);

}  // namespace leime::baselines
