// Differential verification of the ILP selection pipeline against the
// exhaustive oracle (src/oracle/): hundreds of seeded random instances must
// agree *exactly* on the optimal area; larger instances must respect the
// LP-relaxation / greedy sandwich.
#include <gtest/gtest.h>

#include <cstdint>

#include "oracle/differential.hpp"
#include "oracle/exhaustive.hpp"
#include "select/flow.hpp"
#include "workloads/random_workload.hpp"

namespace partita {
namespace {

using workloads::InstanceGenParams;
using workloads::InstanceSpec;

struct ExactConfig {
  const char* name;
  InstanceGenParams params;
  std::uint64_t seed_base;
  int count;
};

InstanceGenParams make_params(int scalls, int kernels, int ips, int branch_groups,
                              int depth, double sharing) {
  InstanceGenParams p;
  p.scalls = scalls;
  p.kernels = kernels;
  p.ips = ips;
  p.branch_groups = branch_groups;
  p.max_hierarchy_depth = depth;
  p.ip_sharing = sharing;
  return p;
}

// 500 exhaustively-checked instances across the generator's dimensions:
// flat/hierarchical call trees, 1-4 execution paths, lean and dense IP
// sharing, up to 10 s-calls.
const ExactConfig kExactConfigs[] = {
    {"flat_small", make_params(6, 4, 5, 1, 0, 0.35), 1000, 150},
    {"two_branches", make_params(8, 4, 6, 2, 0, 0.35), 2000, 125},
    {"hierarchy", make_params(8, 5, 6, 1, 2, 0.35), 3000, 125},
    {"dense_sharing", make_params(10, 5, 7, 2, 1, 0.6), 4000, 100},
};

TEST(OracleDifferential, FiveHundredSeededInstancesAgreeExactly) {
  int checked = 0, skipped = 0;
  for (const ExactConfig& cfg : kExactConfigs) {
    for (int i = 0; i < cfg.count; ++i) {
      const std::uint64_t seed = cfg.seed_base + static_cast<std::uint64_t>(i);
      const InstanceSpec spec =
          workloads::random_instance_spec(cfg.params, seed);
      const oracle::DiffResult r = oracle::differential_check_spec(spec);
      if (r.skipped) {
        ++skipped;
        continue;
      }
      ++checked;
      ASSERT_TRUE(r.ok) << cfg.name << " seed " << seed << ": " << r.detail;
    }
  }
  // The enumeration guard may skip a handful of worst-case instances, but
  // the bulk of the corpus must actually be verified.
  EXPECT_GE(checked, 480) << "skipped " << skipped << " of 500";
}

TEST(OracleDifferential, InfeasibleInstancesAgree) {
  InstanceGenParams p = make_params(6, 4, 5, 1, 0, 0.35);
  for (std::uint64_t seed = 50; seed < 60; ++seed) {
    InstanceSpec spec = workloads::random_instance_spec(p, seed);
    // No assignment reaches this gain; both sides must prove it.
    spec.required_gain = 1'000'000'000'000;
    const oracle::DiffResult r = oracle::differential_check_spec(spec);
    ASSERT_FALSE(r.skipped);
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
    EXPECT_FALSE(r.oracle_feasible);
    EXPECT_FALSE(r.ilp_feasible);
  }
}

TEST(OracleDifferential, HundredLargerInstancesRespectSandwichBounds) {
  const InstanceGenParams configs[] = {
      make_params(16, 8, 12, 2, 0, 0.4),
      make_params(18, 8, 12, 3, 2, 0.4),
  };
  int violations = 0;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(c * 50 + i);
      const InstanceSpec spec = workloads::random_instance_spec(configs[c], seed);
      const workloads::Workload wl = workloads::spec_workload(spec);
      const oracle::SandwichResult r = oracle::sandwich_check(wl);
      EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
      if (!r.ok) ++violations;
      if (r.feasible) {
        EXPECT_LE(r.lp_bound, r.ilp_area + 1e-6);
        if (r.greedy_feasible) {
          EXPECT_LE(r.ilp_area, r.greedy_area + 1e-6);
        }
      }
    }
  }
  EXPECT_EQ(violations, 0);
}

// The oracle's audit must also accept what the oracle itself selects (the
// two halves of exhaustive.cpp agree with each other), and reject a
// deliberately broken assignment.
TEST(OracleDifferential, AuditAcceptsOracleOptimumAndRejectsDoubleImp) {
  const InstanceGenParams p = make_params(6, 4, 5, 1, 0, 0.35);
  const InstanceSpec spec = workloads::random_instance_spec(p, 77);
  const workloads::Workload wl = workloads::spec_workload(spec);
  const select::Flow flow(wl.module, wl.library);
  select::SelectOptions so;
  const std::int64_t rg =
      static_cast<std::int64_t>(0.6 * static_cast<double>(flow.max_feasible_gain(so)));

  const oracle::OracleResult best = oracle::exhaustive_select(
      flow.imp_database(), flow.library(), flow.entry_cdfg(), flow.paths(), rg);
  ASSERT_TRUE(best.exhausted);
  ASSERT_TRUE(best.feasible);
  EXPECT_EQ(oracle::check_selection(flow.imp_database(), flow.entry_cdfg(),
                                    flow.paths(), rg, best.chosen),
            "");

  // Duplicating an IMP for the same s-call must trip the Eq. 1 audit.
  ASSERT_FALSE(best.chosen.empty());
  std::vector<isel::ImpIndex> doubled = best.chosen;
  doubled.push_back(doubled.front());
  EXPECT_NE(oracle::check_selection(flow.imp_database(), flow.entry_cdfg(),
                                    flow.paths(), rg, doubled),
            "");
}

}  // namespace
}  // namespace partita
