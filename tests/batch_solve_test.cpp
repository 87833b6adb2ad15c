// Batch-vs-serial differential tests: Selector::select_batch (and the
// service's batched admission on top of it) amortizes the model build, the
// presolve clique table, chained root bases and carried search state -- and
// must stay bit-identical to the equivalent serial solves while doing so. Feasible items are also
// audited against the independent exhaustive oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "oracle/exhaustive.hpp"
#include "select/flow.hpp"
#include "service/solve_service.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita {
namespace {

void expect_same_selection(const select::Selection& a, const select::Selection& b,
                           const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.chosen, b.chosen) << what;
  EXPECT_EQ(a.ips_used, b.ips_used) << what;
  EXPECT_EQ(a.min_path_gain, b.min_path_gain) << what;
  EXPECT_DOUBLE_EQ(a.ip_area, b.ip_area) << what;
  EXPECT_DOUBLE_EQ(a.interface_area, b.interface_area) << what;
  EXPECT_EQ(a.rung, b.rung) << what;
  EXPECT_EQ(a.solver.termination, b.solver.termination) << what;
}

/// Gain ladder covering easy, hard and infeasible items.
std::vector<std::int64_t> ladder(std::int64_t gmax) {
  return {gmax / 4, gmax / 2, (3 * gmax) / 4, gmax, 2 * gmax + 1};
}

TEST(BatchSolve, BitIdenticalToSerialOnSeedApps) {
  struct Case {
    std::string name;
    workloads::Workload w;
  };
  workloads::RandomWorkloadParams p;
  p.call_sites = 24;
  p.leaf_functions = 8;
  p.ips = 12;
  const Case cases[] = {
      {"gsm_encoder", workloads::gsm_encoder()},
      {"gsm_decoder", workloads::gsm_decoder()},
      {"jpeg_encoder", workloads::jpeg_encoder()},
      {"random_24site", workloads::random_workload(p, 4242)},
  };
  for (const Case& c : cases) {
    select::Flow flow(c.w.module, c.w.library);
    const std::vector<std::int64_t> rgs = ladder(flow.max_feasible_gain());
    std::vector<select::Selection> serial;
    for (const std::int64_t rg : rgs) serial.push_back(flow.select(rg, {}));
    const std::vector<select::Selection> batched = flow.select_batch(rgs, {});
    ASSERT_EQ(batched.size(), rgs.size()) << c.name;
    for (std::size_t i = 0; i < rgs.size(); ++i) {
      expect_same_selection(serial[i], batched[i],
                            c.name + " item " + std::to_string(i));
    }
  }
}

TEST(BatchSolve, ReusesAmortizedArtifacts) {
  workloads::RandomWorkloadParams p;
  p.call_sites = 24;
  p.leaf_functions = 8;
  p.ips = 12;
  const workloads::Workload w = workloads::random_workload(p, 4242);
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 4, gmax / 2, (3 * gmax) / 4};
  const std::vector<select::Selection> batched = flow.select_batch(rgs, {});
  ASSERT_EQ(batched.size(), rgs.size());
  // Items after the first must have hit the shared clique table / root basis
  // at least once -- otherwise the batch path silently degraded to serial.
  long long hits = 0;
  for (std::size_t i = 1; i < batched.size(); ++i) hits += batched[i].solver.batch_hits;
  EXPECT_GT(hits, 0);
}

TEST(BatchSolve, PerPathVariantMatchesSerial) {
  const workloads::Workload w = workloads::gsm_encoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::size_t paths = flow.paths().size();
  // Non-uniform per-path targets, including one all-easy and one stressed.
  std::vector<std::vector<std::int64_t>> items;
  items.push_back(std::vector<std::int64_t>(paths, gmax / 4));
  std::vector<std::int64_t> mixed(paths, gmax / 2);
  if (!mixed.empty()) mixed[0] = gmax;
  items.push_back(mixed);
  std::vector<select::Selection> serial;
  for (const auto& gains : items)
    serial.push_back(flow.selector().select_per_path(gains, {}));
  const std::vector<select::Selection> batched =
      flow.selector().select_batch_per_path(items, {});
  ASSERT_EQ(batched.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    expect_same_selection(serial[i], batched[i], "per-path item " + std::to_string(i));
  }
}

TEST(BatchSolve, PerItemHookRunsInOrder) {
  const workloads::Workload w = workloads::gsm_decoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 2, gmax};
  std::vector<std::size_t> seen;
  const std::vector<select::Selection> batched = flow.selector().select_batch(
      rgs, {}, [&](std::size_t item, ilp::IlpOptions& opt) {
        seen.push_back(item);
        opt.budget.time_limit_seconds = 60.0;  // per-item budget install works
      });
  ASSERT_EQ(batched.size(), rgs.size());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
  for (const select::Selection& sel : batched) EXPECT_TRUE(sel.feasible);
}

TEST(BatchSolve, TruncatedSeededItemAnswersAsAStandaloneSolve) {
  // Items are solved hardest-first with carried search state, so item 0
  // (the lower gain) starts from item 1's optimum. A node limit from the
  // hook truncates it; carried state is not answer-neutral for a truncated
  // search, so the batch must re-solve the item without it. Here the seed
  // would hand the truncated item a gap-bounded incumbent that a
  // standalone two-node search never finds.
  const workloads::Workload w = workloads::jpeg_encoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 2, gmax};
  constexpr int kMaxNodes = 2;
  const std::vector<select::Selection> batched = flow.selector().select_batch(
      rgs, {}, [&](std::size_t item, ilp::IlpOptions& opt) {
        if (item == 0) opt.max_nodes = kMaxNodes;
      });
  ASSERT_EQ(batched.size(), rgs.size());
  ASSERT_TRUE(batched[0].truncated);
  EXPECT_EQ(batched[0].solver.seeded_artifacts, 0);
  select::SelectOptions capped;
  capped.ilp.max_nodes = kMaxNodes;
  expect_same_selection(flow.select(rgs[0], capped), batched[0], "truncated item");
  EXPECT_DOUBLE_EQ(batched[0].optimality_gap, flow.select(rgs[0], capped).optimality_gap);
  expect_same_selection(flow.select(rgs[1], {}), batched[1], "untruncated item");
}

TEST(BatchSolve, FeasibleItemsPassOracleAudit) {
  workloads::RandomWorkloadParams p;
  p.call_sites = 10;
  p.leaf_functions = 4;
  p.ips = 6;
  const workloads::Workload w = workloads::random_workload(p, 58);
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = ladder(gmax);
  const std::vector<select::Selection> batched = flow.select_batch(rgs, {});
  for (std::size_t i = 0; i < rgs.size(); ++i) {
    const oracle::OracleResult ref = oracle::exhaustive_select(
        flow.imp_database(), flow.library(), flow.entry_cdfg(), flow.paths(), rgs[i]);
    ASSERT_TRUE(ref.exhausted) << "item " << i;
    EXPECT_EQ(batched[i].feasible, ref.feasible) << "item " << i;
    if (!ref.feasible) continue;
    EXPECT_NEAR(batched[i].total_area(), ref.total_area, 1e-6) << "item " << i;
    EXPECT_EQ(oracle::check_selection(flow.imp_database(), flow.entry_cdfg(),
                                      flow.paths(), rgs[i], batched[i].chosen),
              "")
        << "item " << i;
  }
}

// --- service batched admission ---------------------------------------------

TEST(BatchSolve, ServiceBatchMatchesSerialSubmits) {
  const workloads::Workload w = workloads::gsm_decoder();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const std::vector<std::int64_t> rgs = {gmax / 4, gmax / 2, gmax};

  service::ServiceConfig cfg;
  cfg.workers = 2;
  service::SolveService svc(cfg);

  service::SolveRequest batch;
  batch.label = "batch";
  batch.workload = workloads::gsm_decoder();
  batch.required_gains = rgs;
  const std::vector<std::uint64_t> tickets = svc.submit(std::move(batch)).tickets;
  ASSERT_EQ(tickets.size(), rgs.size());

  for (std::size_t i = 0; i < rgs.size(); ++i) {
    const service::SolveResponse r = svc.wait(tickets[i]);
    ASSERT_EQ(r.state, service::RequestState::kCompleted) << "item " << i;
    expect_same_selection(flow.select(rgs[i], {}), r.selection,
                          "service item " + std::to_string(i));
  }
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batch_items, rgs.size());
  EXPECT_GT(st.batch_amortized_hits, 0u);
  svc.shutdown();
}

}  // namespace
}  // namespace partita
