// Unit contracts of the policy core: engine degeneration to the reference
// search, the decision path each search takes, and the warm-start
// preconditions. The equivalence *property* (warm ≡ cold) lives
// in policy_diff_test.cpp.
#include "policy/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "models/zoo.h"
#include "policy/warm_start.h"

namespace leime::policy {
namespace {

/// Decision paths an engine's searches took, read off a full-capture
/// provenance recorder.
struct PathCounts {
  std::uint64_t cold = 0;
  std::uint64_t warm = 0;
};

PathCounts paths_of(const obs::ProvenanceRecorder& rec) {
  const auto sum = rec.summary();
  return {sum.paths[static_cast<std::size_t>(obs::DecisionPath::kCold)],
          sum.paths[static_cast<std::size_t>(obs::DecisionPath::kWarmStart)]};
}

obs::ProvenanceConfig every_decision() {
  obs::ProvenanceConfig cfg;
  cfg.sample_n = 1;
  cfg.ring_capacity = 1;
  return cfg;
}

TEST(Engine, DefaultsDegenerateToColdSearch) {
  const auto profile = models::make_inception_v3();
  const core::CostModel cm(profile, core::testbed_environment());
  Engine engine;
  obs::ProvenanceRecorder rec(every_decision());
  engine.attach_provenance(&rec);
  Incumbent incumbent;
  const auto got = engine.exit_setting(cm, &incumbent);
  const auto want = core::branch_and_bound_exit_setting(cm);
  EXPECT_EQ(got.combo, want.combo);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_TRUE(incumbent.valid);
  EXPECT_EQ(incumbent.combo, want.combo);
  // With warm_start off a valid incumbent never seeds the search.
  engine.exit_setting(cm, &incumbent);
  const auto paths = paths_of(rec);
  EXPECT_EQ(paths.cold, 2u);
  EXPECT_EQ(paths.warm, 0u);
}

TEST(Engine, WarmStartSeedsEverySearchAfterTheFirst) {
  const auto profile = models::make_squeezenet();
  const core::CostModel cm(profile, core::testbed_environment());
  Config config;
  config.warm_start = true;
  Engine engine(config);
  obs::ProvenanceRecorder rec(every_decision());
  engine.attach_provenance(&rec);
  // Without an incumbent there is nothing to seed from.
  engine.exit_setting(cm);
  Incumbent incumbent;
  for (int i = 0; i < 4; ++i) engine.exit_setting(cm, &incumbent);
  const auto paths = paths_of(rec);
  EXPECT_EQ(paths.cold, 2u);
  EXPECT_EQ(paths.warm, 3u);
  // A model with another unit count makes the incumbent incompatible.
  const auto other = models::make_inception_v3();
  ASSERT_NE(other.num_units(), profile.num_units());
  engine.exit_setting(core::CostModel(other, core::testbed_environment()),
                      &incumbent);
  EXPECT_EQ(paths_of(rec).cold, 3u);
}

// --- warm start preconditions -----------------------------------------

TEST(WarmStart, IncumbentCompatibility) {
  EXPECT_TRUE(incumbent_compatible({1, 2, 16}, 16));
  EXPECT_TRUE(incumbent_compatible({7, 15, 16}, 16));
  EXPECT_FALSE(incumbent_compatible({0, 2, 16}, 16));   // e1 below range
  EXPECT_FALSE(incumbent_compatible({2, 2, 16}, 16));   // not strictly inc.
  EXPECT_FALSE(incumbent_compatible({1, 16, 16}, 16));  // e2 == m
  EXPECT_FALSE(incumbent_compatible({1, 2, 8}, 16));    // stale model size
}

TEST(WarmStart, RejectsIncompatibleIncumbent) {
  const auto profile = models::make_squeezenet();
  const core::CostModel cm(profile, core::testbed_environment());
  std::vector<double> scratch;
  EXPECT_THROW(
      warm_start_branch_and_bound(cm, {0, 1, profile.num_units()}, scratch),
      std::invalid_argument);
}

}  // namespace
}  // namespace leime::policy
