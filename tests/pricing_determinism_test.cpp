// Pricing-mode determinism: candidate-list pricing is a performance knob,
// never an answer knob. Under canonical tie-breaking both pricing modes must
// report the exact same selection -- the list (ilp::kCandidateListSize
// columns) only restricts which improving column enters, and optimality is
// only ever certified by a full scan.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ilp/simplex.hpp"
#include "select/flow.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

struct Case {
  std::string name;
  workloads::Workload w;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"gsm_encoder", workloads::gsm_encoder()});
  out.push_back({"gsm_decoder", workloads::gsm_decoder()});
  out.push_back({"jpeg_encoder", workloads::jpeg_encoder()});
  workloads::RandomWorkloadParams p;
  p.call_sites = 24;
  p.leaf_functions = 8;
  p.ips = 12;
  out.push_back({"random_24site", workloads::random_workload(p, 4242)});
  return out;
}

void expect_same_selection(const select::Selection& a, const select::Selection& b,
                           const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.chosen, b.chosen) << what;
  EXPECT_EQ(a.ips_used, b.ips_used) << what;
  EXPECT_EQ(a.min_path_gain, b.min_path_gain) << what;
  EXPECT_DOUBLE_EQ(a.ip_area, b.ip_area) << what;
  EXPECT_DOUBLE_EQ(a.interface_area, b.interface_area) << what;
  EXPECT_EQ(a.rung, b.rung) << what;
}

TEST(PricingDeterminism, DantzigAndCandidateListSelectIdentically) {
  for (const Case& c : cases()) {
    select::Flow flow(c.w.module, c.w.library);
    const std::int64_t gmax = flow.max_feasible_gain();
    for (const std::int64_t rg : {gmax / 4, gmax / 2, gmax}) {
      select::SelectOptions dantzig, cand;
      dantzig.ilp.lp.pricing = ilp::PricingMode::kDantzig;
      cand.ilp.lp.pricing = ilp::PricingMode::kCandidateList;
      const select::Selection a = flow.select(rg, dantzig);
      const select::Selection b = flow.select(rg, cand);
      expect_same_selection(a, b, c.name + " rg=" + std::to_string(rg));
    }
  }
}

TEST(PricingDeterminism, LpOptimaAgreeAcrossPricingModes) {
  for (const Case& c : cases()) {
    select::Flow flow(c.w.module, c.w.library);
    const std::int64_t gmax = flow.max_feasible_gain();
    const ilp::Model m = flow.selector().build_model(
        std::vector<std::int64_t>(flow.paths().size(), gmax / 2), {});
    ilp::LpOptions dantzig, cand;
    dantzig.pricing = ilp::PricingMode::kDantzig;
    cand.pricing = ilp::PricingMode::kCandidateList;
    const ilp::LpResult a = ilp::solve_lp(m, dantzig);
    const ilp::LpResult b = ilp::solve_lp(m, cand);
    ASSERT_EQ(a.status, ilp::LpStatus::kOptimal) << c.name;
    ASSERT_EQ(b.status, ilp::LpStatus::kOptimal) << c.name;
    EXPECT_NEAR(a.objective, b.objective, 1e-6 * (1.0 + std::abs(a.objective)))
        << c.name;
    // The candidate list must actually have been exercised, not silently
    // degraded to full scans.
    EXPECT_GT(b.candidate_scans + b.pricing_refreshes, 0) << c.name;
  }
}

TEST(PricingDeterminism, RepeatedSolvesAreBitIdentical) {
  // Same flow object, same options, back-to-back: candidate-list state must
  // not leak between solves.
  const Case c = cases()[3];
  select::Flow flow(c.w.module, c.w.library);
  const std::int64_t rg = flow.max_feasible_gain() / 2;
  const select::Selection a = flow.select(rg, {});
  const select::Selection b = flow.select(rg, {});
  expect_same_selection(a, b, "repeat");
  EXPECT_EQ(a.solver.nodes, b.solver.nodes);
  EXPECT_EQ(a.solver.lp_iterations, b.solver.lp_iterations);
}

}  // namespace
}  // namespace partita
