// Tests for the core contribution: the ILP formulation (Problems 1 and 2),
// solution decoding, the selection rule, and the baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "cdfg/parallel.hpp"
#include "cdfg/paths.hpp"
#include "ilp/fingerprint.hpp"
#include "ilp/simplex.hpp"
#include "oracle/exhaustive.hpp"
#include "select/flow.hpp"
#include "support/rng.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita::select {
namespace {

// --- formulation invariants on the built model ------------------------------------

TEST(Formulation, HasEq1RowsPerSCall) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  ASSERT_EQ(flow.paths().size(), 2u);  // one conditional
  // Eq. 2 is the worst-path tree: the requirement row gain_path0 plus one
  // row per arm of the conditional.
  const ilp::Model m = flow.selector().build_model({1, 1}, {});
  std::size_t eq1 = 0, gain_rows = 0, arm_rows = 0, fc = 0;
  for (const ilp::Row& row : m.rows()) {
    if (row.name.rfind("one_imp_", 0) == 0) {
      ++eq1;
      EXPECT_EQ(row.sense, ilp::RowSense::kLessEqual);
      EXPECT_DOUBLE_EQ(row.rhs, 1.0);
    } else if (row.name.rfind("gain_path", 0) == 0) {
      ++gain_rows;
      EXPECT_EQ(row.sense, ilp::RowSense::kGreaterEqual);
    } else if (row.name.rfind("arm_if", 0) == 0) {
      ++arm_rows;
      EXPECT_EQ(row.sense, ilp::RowSense::kLessEqual);
      EXPECT_DOUBLE_EQ(row.rhs, 0.0);
    } else if (row.name.rfind("fc_ip", 0) == 0) {
      ++fc;
    }
  }
  EXPECT_EQ(eq1, flow.scalls().size());
  EXPECT_EQ(gain_rows, 1u);
  EXPECT_EQ(arm_rows, 2u);
  EXPECT_GT(fc, 0u);
}

TEST(Formulation, SelectionSatisfiesEverything) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const std::int64_t rg = flow.max_feasible_gain() / 2;
  const Selection sel = flow.select(rg);
  ASSERT_TRUE(sel.feasible);

  // Every path actually meets the requirement.
  for (const cdfg::ExecPath& p : flow.paths()) {
    EXPECT_GE(path_gain(sel.chosen, flow.imp_database(), flow.entry_cdfg(), p), rg);
  }
  EXPECT_GE(sel.min_path_gain, rg);

  // At most one IMP per s-call.
  std::set<std::uint32_t> seen;
  for (isel::ImpIndex idx : sel.chosen) {
    const auto site = flow.imp_database().imps()[idx].scall.value();
    EXPECT_TRUE(seen.insert(site).second);
  }
}

TEST(Formulation, FixedChargeCountsIpOnce) {
  // The decoder's shared synthesis-filter IP serves several s-calls; the IP
  // area must appear once.
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const Selection sel = flow.select(flow.max_feasible_gain() * 3 / 4);
  ASSERT_TRUE(sel.feasible);
  double expected_ip_area = 0;
  for (iplib::IpId ip : sel.ips_used) expected_ip_area += w.library.ip(ip).area;
  EXPECT_DOUBLE_EQ(sel.ip_area, expected_ip_area);
  // ips_used has no duplicates by construction; selected s-calls can exceed
  // the IP count only through sharing.
  std::set<std::uint32_t> distinct;
  for (iplib::IpId ip : sel.ips_used) EXPECT_TRUE(distinct.insert(ip.value).second);
}

// Eq. 3's fixed-charge row sum_{j on IP k} x_j <= M_k z_k takes M_k = the
// number of distinct s-calls with an IMP on k: Eq. 1 picks at most one IMP
// per s-call, so that M_k is valid and no larger than the IMP count.
TEST(Formulation, FixedChargeBigMCountsSCalls) {
  std::vector<std::pair<std::string, workloads::Workload>> cases;
  for (const char* name :
       {"gsm_encoder", "gsm_decoder", "jpeg_encoder", "fig9", "fig10", "adpcm_codec"}) {
    cases.emplace_back(name, *workloads::builtin(name));
  }
  workloads::InstanceGenParams p;  // the spec_unique shape: 256 paths
  p.scalls = 20;
  p.kernels = 8;
  p.ips = 10;
  p.branch_groups = 8;
  p.max_hierarchy_depth = 1;
  cases.emplace_back("spec_256_paths",
                     workloads::spec_workload(workloads::random_instance_spec(p, 1)));

  for (const auto& [name, w] : cases) {
    SCOPED_TRACE(name);
    Flow flow(w.module, w.library);
    std::map<std::uint32_t, std::set<ir::CallSiteId>> scalls_on;
    std::map<std::uint32_t, std::size_t> imps_on;
    for (const isel::Imp& imp : flow.imp_database().imps()) {
      scalls_on[imp.ip.value].insert(imp.scall);
      ++imps_on[imp.ip.value];
    }
    const ilp::Model m = flow.selector().build_model(
        std::vector<std::int64_t>(flow.paths().size(), flow.max_feasible_gain() / 2), {});

    // The same model with the IMP-count M_k, rebuilt row by row.
    ilp::Model loose;
    loose.set_sense(m.sense());
    for (const ilp::Variable& v : m.vars()) {
      const ilp::VarIndex i = v.kind == ilp::VarKind::kBinary
                                  ? loose.add_binary(v.name, v.objective)
                                  : loose.add_continuous(v.name, v.lower, v.upper, v.objective);
      loose.var(i).lower = v.lower;
      loose.var(i).upper = v.upper;
    }
    std::size_t fc_rows = 0, strictly_tighter = 0;
    for (const ilp::Row& row : m.rows()) {
      std::vector<ilp::Term> terms = row.terms;
      if (row.name.rfind("fc_ip", 0) == 0) {
        ++fc_rows;
        const std::uint32_t ip = static_cast<std::uint32_t>(std::stoul(row.name.substr(5)));
        const double scalls = static_cast<double>(scalls_on.at(ip).size());
        const double imps = static_cast<double>(imps_on.at(ip));
        int z_terms = 0;
        for (ilp::Term& t : terms) {
          if (m.var(t.var).name.rfind("z_", 0) != 0) continue;
          ++z_terms;
          EXPECT_EQ(t.coeff, -scalls) << row.name;
          t.coeff = -imps;
        }
        EXPECT_EQ(z_terms, 1) << row.name;
        strictly_tighter += scalls < imps;
      }
      loose.add_row(row.name, std::move(terms), row.sense, row.rhs);
    }
    EXPECT_EQ(fc_rows, scalls_on.size());
    if (name == "gsm_encoder") {
      EXPECT_GT(strictly_tighter, 0u);
    }

    const ilp::LpResult tight_lp = ilp::solve_lp(m);
    const ilp::LpResult loose_lp = ilp::solve_lp(loose);
    ASSERT_EQ(tight_lp.status, ilp::LpStatus::kOptimal);
    ASSERT_EQ(loose_lp.status, ilp::LpStatus::kOptimal);
    EXPECT_GE(tight_lp.objective, loose_lp.objective - 1e-9);
  }
}

TEST(Formulation, MergingRuleSLeO) {
  // S (S-instructions) <= O (implemented s-calls), always.
  workloads::Workload w = workloads::gsm_encoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  for (int k = 1; k <= 4; ++k) {
    const Selection sel = flow.select(gmax * k / 4);
    ASSERT_TRUE(sel.feasible);
    EXPECT_LE(sel.s_instructions, sel.selected_scalls);
  }
}

TEST(Formulation, InfeasibleAboveMaxGain) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  EXPECT_TRUE(flow.select(gmax).feasible);
  EXPECT_FALSE(flow.select(gmax + gmax / 10 + 1000).feasible);
}

// The derived gain is the exact integer optimum of the max-min-gain ILP,
// not its floating objective truncated (which can land one below).
TEST(Formulation, MaxFeasibleGainIsExact) {
  // Oracle-sized specs: the exhaustive oracle is feasible at G and
  // infeasible at G + 1 wherever it exhausts.
  workloads::InstanceGenParams small;
  small.scalls = 8;
  small.ips = 6;
  small.branch_groups = 2;
  int checked = 0;
  for (std::uint64_t seed = 500; seed < 524; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const workloads::Workload w =
        workloads::spec_workload(workloads::random_instance_spec(small, seed));
    Flow flow(w.module, w.library);
    const std::int64_t g = flow.max_feasible_gain();
    auto oracle_at = [&](std::int64_t gain) {
      return oracle::exhaustive_select(flow.imp_database(), flow.library(),
                                       flow.entry_cdfg(), flow.paths(), gain);
    };
    const oracle::OracleResult at = oracle_at(g);
    const oracle::OracleResult above = oracle_at(g + 1);
    if (!at.exhausted || !above.exhausted) continue;
    EXPECT_TRUE(at.feasible) << "derived gain " << g;
    EXPECT_FALSE(above.feasible) << "derived gain " << g << " is below the optimum";
    ++checked;
  }
  EXPECT_GE(checked, 20);

  // 256 paths (a spec_unique instance, too large to enumerate), where the
  // floating objective sits just below the integer optimum.
  workloads::InstanceGenParams large;
  large.scalls = 20;
  large.kernels = 8;
  large.ips = 10;
  large.branch_groups = 8;
  large.max_hierarchy_depth = 1;
  const workloads::Workload w =
      workloads::spec_workload(workloads::random_instance_spec(large, 1013));
  Flow flow(w.module, w.library);
  ASSERT_EQ(flow.paths().size(), 256u);
  const std::int64_t g = flow.max_feasible_gain();
  EXPECT_TRUE(flow.select(g).feasible);
  EXPECT_FALSE(flow.select(g + 1).feasible) << "derived gain " << g << " is below the optimum";

  // More than 12 conditionals, so path enumeration truncates at kMaxPaths;
  // the worst-path tree still covers every path. Call-site count 26 is the
  // smallest random_workload shape (default parameters otherwise) found to
  // truncate.
  workloads::RandomWorkloadParams wide;
  wide.call_sites = 26;
  const workloads::Workload many = workloads::random_workload(wide, 100);
  Flow truncated(many.module, many.library);
  ASSERT_GT(cdfg::conditional_tree(truncated.entry_cdfg()).conds.size(), 12u);
  ASSERT_EQ(truncated.paths().size(), cdfg::kMaxPaths);
  const std::int64_t gp = truncated.max_feasible_gain();
  EXPECT_TRUE(truncated.select(gp).feasible);
  EXPECT_FALSE(truncated.select(gp + 1).feasible)
      << "derived gain " << gp << " is below the optimum";
}

// Eq. 2 in its per-path form, rebuilt from flow.paths(): the tree model's
// y columns (which follow x and z) and arm rows dropped, and its requirement
// row gain_path0 replaced in place by one gain_path<p> row per path.
ilp::Model per_path_model(const Flow& flow, const ilp::Model& tree) {
  const std::vector<isel::Imp>& imps = flow.imp_database().imps();
  ilp::Model m;
  m.set_sense(tree.sense());
  for (const ilp::Variable& v : tree.vars()) {
    if (v.name.rfind("y_if", 0) == 0) continue;
    const ilp::VarIndex i = v.kind == ilp::VarKind::kBinary
                                ? m.add_binary(v.name, v.objective)
                                : m.add_continuous(v.name, v.lower, v.upper, v.objective);
    m.var(i).lower = v.lower;
    m.var(i).upper = v.upper;
  }
  for (const ilp::Row& row : tree.rows()) {
    if (row.name.rfind("arm_if", 0) == 0) continue;
    if (row.name != "gain_path0") {
      m.add_row(row.name, row.terms, row.sense, row.rhs);
      continue;
    }
    for (std::size_t p = 0; p < flow.paths().size(); ++p) {
      std::vector<ilp::Term> terms;
      for (std::size_t j = 0; j < imps.size(); ++j) {
        const isel::SCall* sc = flow.imp_database().scall_of(imps[j].scall);
        if (!sc || sc->node == cdfg::kInvalidNode || !flow.paths()[p].contains(sc->node)) {
          continue;
        }
        terms.push_back({static_cast<ilp::VarIndex>(j),
                         static_cast<double>(imps[j].gain_per_exec) *
                             static_cast<double>(
                                 flow.entry_cdfg().node(sc->node).loop_frequency)});
      }
      m.add_row("gain_path" + std::to_string(p), std::move(terms), row.sense, row.rhs);
    }
  }
  return m;
}

void set_gain_rows(ilp::Model& m, std::int64_t rg) {
  for (std::size_t r = 0; r < m.row_count(); ++r) {
    if (m.row(static_cast<ilp::RowIndex>(r)).name.rfind("gain_path", 0) == 0) {
      m.set_rhs(static_cast<ilp::RowIndex>(r), static_cast<double>(rg));
    }
  }
}

// Under a uniform requirement Eq. 2 is built as a worst-path tree (one
// requirement row, one y column and two arm rows per conditional). It must
// answer exactly as one row per execution path: the same chosen set and
// area at every gain, and the same derived gain, on 2^k-path specs and on
// random workloads with nested and in-loop conditionals.
TEST(Formulation, WorstPathTreeMatchesEveryPath) {
  std::vector<std::pair<std::string, workloads::Workload>> cases;
  for (int k = 1; k <= 8; ++k) {
    workloads::InstanceGenParams p;  // the spec_unique shape at 2^k paths
    p.scalls = 20;
    p.kernels = 8;
    p.ips = 10;
    p.branch_groups = k;
    p.max_hierarchy_depth = 1;
    cases.emplace_back("spec_" + std::to_string(1 << k) + "_paths",
                       workloads::spec_workload(workloads::random_instance_spec(p, 2000 + k)));
  }
  int nested = 0, in_loop = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    workloads::RandomWorkloadParams p;
    p.call_sites = 10 + static_cast<int>(seed % 3) * 4;
    p.if_probability = 0.4;
    workloads::Workload w = workloads::random_workload(p, seed);
    const Flow flow(w.module, w.library);
    const cdfg::CondTree t = cdfg::conditional_tree(flow.entry_cdfg());
    // More than 12 conditionals would truncate flow.paths(), which
    // per_path_model rebuilds Eq. 2 from.
    if (t.conds.empty() || t.conds.size() > 12) continue;
    nested += std::any_of(t.conds.begin(), t.conds.end(),
                          [](const cdfg::CondTree::Cond& c) { return c.parent_scope != 0; });
    in_loop += std::any_of(flow.entry_cdfg().nodes().begin(), flow.entry_cdfg().nodes().end(),
                           [](const cdfg::AtomicNode& n) {
                             return !n.loop_ctx.empty() && !n.branch_ctx.empty();
                           });
    cases.emplace_back("random_" + std::to_string(seed), std::move(w));
  }
  EXPECT_GE(cases.size(), 16u);
  EXPECT_GT(nested, 0);
  EXPECT_GT(in_loop, 0);

  for (const auto& [name, w] : cases) {
    SCOPED_TRACE(name);
    Flow flow(w.module, w.library);
    const std::size_t conds = cdfg::conditional_tree(flow.entry_cdfg()).conds.size();
    const std::int64_t gmax = flow.max_feasible_gain();
    ASSERT_GT(gmax, 0);
    for (int k = 1; k <= 4; ++k) {
      SCOPED_TRACE("rg " + std::to_string(k) + "/4 of " + std::to_string(gmax));
      const ilp::Model tree = flow.selector().build_model(
          std::vector<std::int64_t>(flow.paths().size(), gmax * k / 4), {});
      std::size_t arm_rows = 0;
      for (const ilp::Row& row : tree.rows()) arm_rows += row.name.rfind("arm_if", 0) == 0;
      ASSERT_EQ(arm_rows, 2 * conds);
      const ilp::Model explicit_paths = per_path_model(flow, tree);
      const ilp::IlpResult a = ilp::solve_ilp(tree);
      const ilp::IlpResult b = ilp::solve_ilp(explicit_paths);
      ASSERT_EQ(a.has_solution, b.has_solution);
      if (!a.has_solution) continue;
      EXPECT_EQ(a.objective, b.objective);
      const std::size_t binaries = explicit_paths.var_count();
      EXPECT_EQ(std::vector<double>(a.x.begin(), a.x.begin() + binaries), b.x);
    }
    // The derived gain is the largest uniform gain every path meets.
    ilp::Model at = per_path_model(
        flow, flow.selector().build_model(std::vector<std::int64_t>(flow.paths().size(), 1), {}));
    set_gain_rows(at, gmax);
    EXPECT_TRUE(ilp::solve_ilp(at).has_solution);
    set_gain_rows(at, gmax + 1);
    EXPECT_FALSE(ilp::solve_ilp(at).has_solution) << "derived gain " << gmax;
  }

  // Without a conditional the tree is the single path row itself.
  for (const char* name : {"jpeg_encoder", "fig9"}) {
    SCOPED_TRACE(name);
    const workloads::Workload w = *workloads::builtin(name);
    Flow flow(w.module, w.library);
    ASSERT_EQ(flow.paths().size(), 1u);
    const ilp::Model tree = flow.selector().build_model({flow.max_feasible_gain() / 2}, {});
    const ilp::Model explicit_paths = per_path_model(flow, tree);
    EXPECT_EQ(ilp::fingerprint_model(tree), ilp::fingerprint_model(explicit_paths));
    ASSERT_EQ(tree.row_count(), explicit_paths.row_count());
    for (std::size_t r = 0; r < tree.row_count(); ++r) {
      const ilp::Row& x = tree.row(static_cast<ilp::RowIndex>(r));
      const ilp::Row& y = explicit_paths.row(static_cast<ilp::RowIndex>(r));
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.rhs, y.rhs);
      ASSERT_EQ(x.terms.size(), y.terms.size()) << x.name;
      for (std::size_t i = 0; i < x.terms.size(); ++i) {
        EXPECT_EQ(x.terms[i].var, y.terms[i].var) << x.name;
        EXPECT_EQ(x.terms[i].coeff, y.terms[i].coeff) << x.name;
      }
    }
  }
}

TEST(Formulation, AreaMonotoneInRequiredGain) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  double prev = -1;
  for (int k = 1; k <= 8; ++k) {
    const Selection sel = flow.select(gmax * k / 8);
    ASSERT_TRUE(sel.feasible) << "k=" << k;
    EXPECT_GE(sel.total_area(), prev - 1e-9) << "k=" << k;
    prev = sel.total_area();
  }
}

TEST(Formulation, ZeroRequiredGainSelectsNothing) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const Selection sel = flow.select(0);
  ASSERT_TRUE(sel.feasible);
  EXPECT_TRUE(sel.chosen.empty());
  EXPECT_DOUBLE_EQ(sel.total_area(), 0.0);
}

// --- Problem 1 vs Problem 2 ----------------------------------------------------------

TEST(Problem2, Fig9NeedsSoftwareScallAsParallelCode) {
  workloads::Workload w = workloads::fig9_case();
  Flow flow(w.module, w.library);

  SelectOptions p1;
  p1.problem2 = false;
  SelectOptions p2;
  p2.problem2 = true;

  // All three fir() on the IP via the cheapest interface: 3 * 4000.
  const std::int64_t p1_max = flow.selector().max_feasible_gain(p1);
  const std::int64_t p2_max = flow.selector().max_feasible_gain(p2);
  EXPECT_GT(p2_max, p1_max);  // Fig. 9's claim

  const std::int64_t rg = (p1_max + p2_max) / 2;
  EXPECT_FALSE(flow.select(rg, p1).feasible);
  const Selection sel = flow.select(rg, p2);
  ASSERT_TRUE(sel.feasible);

  // The winning solution keeps one fir in software as someone's PC.
  bool consumed = false;
  for (isel::ImpIndex idx : sel.chosen) {
    consumed |= !flow.imp_database().imps()[idx].pc_consumed_scalls.empty();
  }
  EXPECT_TRUE(consumed);
}

TEST(Problem2, Fig10CommonScallSplitsImplementations) {
  workloads::Workload w = workloads::fig10_case();
  Flow flow(w.module, w.library);

  SelectOptions p1;
  p1.problem2 = false;
  SelectOptions p2;

  const std::int64_t p2_max = flow.selector().max_feasible_gain(p2);
  const std::int64_t p1_max = flow.selector().max_feasible_gain(p1);
  ASSERT_GT(p2_max, p1_max);
  const std::int64_t rg = (p1_max + p2_max) / 2;

  EXPECT_FALSE(flow.select(rg, p1).feasible);
  const Selection sel = flow.select(rg, p2);
  ASSERT_TRUE(sel.feasible);

  // The dct IMP must exploit the common fir's software body...
  bool dct_with_pc = false;
  std::set<std::uint32_t> implemented_sites;
  for (isel::ImpIndex idx : sel.chosen) {
    const isel::Imp& imp = flow.imp_database().imps()[idx];
    implemented_sites.insert(imp.scall.value());
    if (imp.ip_function->function == "dct" &&
        imp.pc_use == isel::PcUse::kWithScallSw) {
      dct_with_pc = true;
      // ...and the consumed site must stay in software.
      for (ir::CallSiteId c : imp.pc_consumed_scalls) {
        EXPECT_FALSE(implemented_sites.count(c.value()));
      }
    }
  }
  EXPECT_TRUE(dct_with_pc);
}

TEST(Problem2, SelectionRuleEnforced) {
  // No chosen IMP pair may violate the SC-PC conflict.
  workloads::Workload w = workloads::fig10_case();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  const Selection sel = flow.select(gmax);
  ASSERT_TRUE(sel.feasible);
  std::set<std::uint32_t> implemented;
  for (isel::ImpIndex idx : sel.chosen) {
    implemented.insert(flow.imp_database().imps()[idx].scall.value());
  }
  for (isel::ImpIndex idx : sel.chosen) {
    for (ir::CallSiteId consumed : flow.imp_database().imps()[idx].pc_consumed_scalls) {
      EXPECT_FALSE(implemented.count(consumed.value()))
          << "IMP consumes a hardware-implemented s-call";
    }
  }
}

TEST(Problem1, SameFunctionSameImplementation) {
  workloads::Workload w = workloads::fig9_case();  // three calls to fir
  Flow flow(w.module, w.library);
  SelectOptions p1;
  p1.problem2 = false;
  const std::int64_t rg = flow.selector().max_feasible_gain(p1);
  const Selection sel = flow.select(rg, p1);
  ASSERT_TRUE(sel.feasible);
  // All implemented fir sites share (IP, interface).
  std::set<std::pair<std::uint32_t, int>> ways;
  for (isel::ImpIndex idx : sel.chosen) {
    const isel::Imp& imp = flow.imp_database().imps()[idx];
    ways.insert({imp.ip.value, static_cast<int>(imp.iface_type)});
  }
  EXPECT_LE(ways.size(), 1u);
  EXPECT_EQ(sel.chosen.size(), 3u);  // all or none under the coupling
}

// --- baselines ------------------------------------------------------------------------

TEST(Baselines, GreedyFeasibleButNeverCheaperThanIlp) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  for (int k = 1; k <= 3; ++k) {
    const std::int64_t rg = gmax * k / 4;
    const Selection ilp_sel = flow.select(rg);
    const Selection greedy_sel = flow.greedy(rg);
    ASSERT_TRUE(ilp_sel.feasible);
    if (greedy_sel.feasible) {
      EXPECT_GE(greedy_sel.min_path_gain, rg);
      EXPECT_GE(greedy_sel.total_area(), ilp_sel.total_area() - 1e-9);
    }
  }
}

// Fig. 10: once iir's path meets the requirement, the fir both paths share
// is worth only what it adds to dct's path. Counting every path through the
// shared code would buy the fir IP on top of dct's and iir's (area 42.78).
TEST(Baselines, GreedyCountsOnlyPathsThatStillMiss) {
  workloads::Workload w = workloads::fig10_case();
  Flow flow(w.module, w.library);
  const Selection sel = flow.greedy(flow.max_feasible_gain() / 2);
  ASSERT_TRUE(sel.feasible);
  std::vector<std::uint32_t> scalls;
  for (isel::ImpIndex idx : sel.chosen) {
    scalls.push_back(flow.imp_database().imps()[idx].scall.value());
  }
  EXPECT_EQ(scalls, (std::vector<std::uint32_t>{0, 3}));  // dct and iir
  EXPECT_NEAR(sel.total_area(), 32.52, 1e-9);
}

TEST(Baselines, PriorArtRestrictedToType0NoPc) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const Selection sel = flow.prior_art(flow.max_feasible_gain() / 4);
  ASSERT_TRUE(sel.feasible);
  for (isel::ImpIndex idx : sel.chosen) {
    const isel::Imp& imp = flow.imp_database().imps()[idx];
    EXPECT_TRUE(prior_art_allows(imp)) << imp.describe(w.library);
  }
}

TEST(Baselines, PriorArtFailsWhereFullMethodSucceeds) {
  // Fig. 9 again: without buffered interfaces + PC the top of the gain range
  // is unreachable.
  workloads::Workload w = workloads::fig9_case();
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  EXPECT_TRUE(flow.select(gmax).feasible);
  EXPECT_FALSE(flow.prior_art(gmax).feasible);
}

// --- describe / decode -------------------------------------------------------------------

TEST(Decode, DescribeUsesPaperNotation) {
  workloads::Workload w = workloads::gsm_decoder();
  Flow flow(w.module, w.library);
  const Selection sel = flow.select(flow.max_feasible_gain() / 4);
  ASSERT_TRUE(sel.feasible);
  const std::string desc = sel.describe(flow.imp_database(), w.library);
  EXPECT_NE(desc.find("SC"), std::string::npos);
  EXPECT_NE(desc.find("IF"), std::string::npos);
  EXPECT_NE(desc.find("IP"), std::string::npos);
}

// --- gains below the integrality tolerance ----------------------------------------------

// jpeg_encoder's Eq. 2 coefficients reach 3.7e7, so the root LP meets a
// required gain of 16 or less with one binary below kIntTol. Rounded, that
// point breaks the requirement row; the node must split on the binary
// rather than close as if proven infeasible, so every small gain gets the
// answer of gain 17.
TEST(SmallGain, JpegBelowIntegralityToleranceGetsRg17Answer) {
  const workloads::Workload w = workloads::jpeg_encoder();
  const Flow flow(w.module, w.library);
  const Selection want = flow.select(17);
  ASSERT_TRUE(want.feasible);
  for (std::int64_t rg = 1; rg <= 16; ++rg) {
    const Selection sel = flow.select(rg);
    ASSERT_TRUE(sel.feasible) << "rg " << rg;
    EXPECT_EQ(sel.chosen, want.chosen) << "rg " << rg;
    EXPECT_EQ(sel.rung, DegradationRung::kOptimal) << "rg " << rg;
  }
}

// Random workloads (call sites, seed) whose gain-1 search closed such a
// node, against the exhaustive oracle.
TEST(SmallGain, RandomWorkloadsAtGainOneMatchOracle) {
  for (const auto& [sites, seed] : std::vector<std::pair<int, std::uint64_t>>{
           {14, 2}, {16, 4}, {29, 17}, {31, 19}, {19, 47},
           {21, 69}, {22, 70}, {24, 72}, {30, 98}}) {
    SCOPED_TRACE(std::to_string(sites) + " call sites, seed " + std::to_string(seed));
    workloads::RandomWorkloadParams params;
    params.call_sites = sites;
    const workloads::Workload w = workloads::random_workload(params, seed);
    const Flow flow(w.module, w.library);
    const Selection sel = flow.select(1);
    const oracle::OracleResult o = oracle::exhaustive_select(
        flow.imp_database(), w.library, flow.entry_cdfg(), flow.paths(), 1);
    ASSERT_TRUE(o.exhausted);
    ASSERT_TRUE(o.feasible);
    ASSERT_TRUE(sel.feasible);
    EXPECT_NEAR(sel.total_area(), o.total_area, 1e-9);
  }
}

// --- the path-free Flow against an uncapped path enumeration ------------------------------

// Per node of g: its arms as (conditional in conditional_tree order,
// then_arm), outermost first.
using ArmFrames = std::vector<std::vector<std::pair<std::size_t, bool>>>;
ArmFrames arm_frames(const cdfg::Cdfg& g) {
  const cdfg::CondTree t = cdfg::conditional_tree(g);
  ArmFrames frames(g.node_count());
  for (cdfg::NodeIndex v = 0; v < g.node_count(); ++v) {
    for (const cdfg::BranchFrame& f : g.node(v).branch_ctx) {
      std::size_t c = 0;
      while (t.conds[c].stmt != f.if_stmt) ++c;
      frames[v].emplace_back(c, f.then_arm);
    }
  }
  return frames;
}

// The path of one decision vector over k conditionals: bit k-1-c of `code`
// set means conditional c takes its else-arm.
cdfg::ExecPath decided_path(const ArmFrames& frames, std::size_t k, std::uint64_t code) {
  cdfg::ExecPath p;
  for (cdfg::NodeIndex v = 0; v < frames.size(); ++v) {
    const bool on = std::all_of(frames[v].begin(), frames[v].end(), [&](const auto& f) {
      return ((code >> (k - 1 - f.first)) & 1) != f.second;
    });
    if (on) p.nodes.push_back(v);
  }
  return p;
}

// Every execution path of g with no kMaxPaths cap: each decision vector in
// enumerate_paths' order (conditionals in conditional_tree order, then-arm
// first) materialized, repeated node sets dropped.
std::vector<cdfg::ExecPath> uncapped_paths(const cdfg::Cdfg& g) {
  const ArmFrames frames = arm_frames(g);
  const std::size_t k = cdfg::conditional_tree(g).conds.size();
  std::vector<cdfg::ExecPath> out;
  std::set<std::vector<cdfg::NodeIndex>> seen;
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << k); ++code) {
    cdfg::ExecPath p = decided_path(frames, k, code);
    if (seen.insert(p.nodes).second) out.push_back(std::move(p));
  }
  return out;
}

// The PC queries ImpDatabase makes for one s-call: the plain PC, Problem 2's
// PC and each of its prefixes consuming k = 1..consumable s-call bodies.
std::vector<cdfg::PcOptions> pc_queries(const isel::ImpDatabase& db, std::size_t consumable) {
  cdfg::PcOptions opt;
  opt.is_scall = [&db](ir::CallSiteId c) { return db.scall_of(c) != nullptr; };
  std::vector<cdfg::PcOptions> queries{opt};
  opt.allow_scall_software = true;
  queries.push_back(opt);
  for (std::size_t k = 1; k <= consumable; ++k) {
    opt.max_consumed = k;
    queries.push_back(opt);
  }
  return queries;
}

// Definition 5 read off a path list: cdfg/parallel.hpp's per-path
// construction on every path through the call; the first path with the
// fewest PC cycles wins.
cdfg::ParallelCode pc_over_paths(const cdfg::Cdfg& g, cdfg::NodeIndex call,
                                 const std::vector<cdfg::ExecPath>& paths,
                                 const cdfg::PcOptions& opt) {
  std::optional<cdfg::ParallelCode> best;
  for (const cdfg::ExecPath& path : paths) {
    const auto at = std::find(path.nodes.begin(), path.nodes.end(), call);
    if (at == path.nodes.end()) continue;
    cdfg::ParallelCode pc;
    std::vector<cdfg::NodeIndex> skipped;
    for (auto it = at + 1; it != path.nodes.end(); ++it) {
      const cdfg::AtomicNode& node = g.node(*it);
      bool join = g.independent(call, *it) && g.same_loop_ctx(call, *it);
      bool consumes = false;
      if (join && node.is_call && opt.is_scall(node.call_site)) {
        consumes = opt.allow_scall_software && pc.consumed_scalls.size() < opt.max_consumed;
        join = consumes;
      }
      for (const cdfg::NodeIndex s : skipped) join = join && !g.depends(s, *it);
      if (!join) {
        skipped.push_back(*it);
        continue;
      }
      pc.nodes.push_back(*it);
      pc.cycles += node.cycles;
      if (consumes) pc.consumed_scalls.push_back(node.call_site);
    }
    if (!best || pc.cycles < best->cycles) best = std::move(pc);
  }
  return best.value_or(cdfg::ParallelCode{});
}

// Parallel code, the derived gain and the guaranteed gain see every path,
// not just the kMaxPaths that enumerate_paths lists. Checked against the
// uncapped enumeration above on random workloads with at most 12
// conditionals (where enumerate_paths is complete) and with 13-15, where a
// minimum over the listed paths alone overstates some PCs.
TEST(PathFree, TreeMatchesUncappedEnumeration) {
  int wide = 0;
  for (const auto& [sites, seed] : std::vector<std::pair<int, std::uint64_t>>{
           {12, 1}, {12, 2}, {20, 3}, {30, 9}, {30, 35}, {36, 35}}) {
    workloads::RandomWorkloadParams params;
    params.call_sites = sites;
    const workloads::Workload w = workloads::random_workload(params, seed);
    const Flow flow(w.module, w.library);
    const cdfg::Cdfg& g = flow.entry_cdfg();
    const isel::ImpDatabase& db = flow.imp_database();
    const std::size_t conds = cdfg::conditional_tree(g).conds.size();
    SCOPED_TRACE(std::to_string(sites) + " call sites, seed " + std::to_string(seed) + ", " +
                 std::to_string(conds) + " conditionals");
    ASSERT_GT(conds, 0u);
    wide += conds > 12;
    const std::vector<cdfg::ExecPath> paths = uncapped_paths(g);

    // Plain PC, Problem 2's PC and every consumption prefix of it.
    for (const isel::SCall& sc : db.scalls()) {
      if (sc.node == cdfg::kInvalidNode) continue;
      const std::size_t consumable =
          pc_over_paths(g, sc.node, paths, pc_queries(db, 0).back()).consumed_scalls.size();
      for (const cdfg::PcOptions& q : pc_queries(db, consumable)) {
        SCOPED_TRACE("SC" + std::to_string(sc.site.value()) + " problem2 " +
                     std::to_string(q.allow_scall_software) + " max_consumed " +
                     std::to_string(q.max_consumed));
        const cdfg::ParallelCode want = pc_over_paths(g, sc.node, paths, q);
        const cdfg::ParallelCode got = cdfg::parallel_code(g, sc.node, q);
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.nodes, want.nodes);
        EXPECT_EQ(got.consumed_scalls, want.consumed_scalls);
      }
    }

    // The selection at the derived gain meets it on every path, and its
    // guaranteed gain is the worst path's.
    const std::int64_t gmax = flow.max_feasible_gain();
    const Selection sel = flow.select(gmax);
    ASSERT_TRUE(sel.feasible);
    std::int64_t worst = std::numeric_limits<std::int64_t>::max();
    for (const cdfg::ExecPath& p : paths) {
      worst = std::min(worst, path_gain(sel.chosen, db, g, p));
    }
    EXPECT_GE(worst, gmax);
    EXPECT_EQ(sel.min_path_gain, worst);
  }
  EXPECT_EQ(wide, 3);
}

// 48 call sites, seed 6: 22 conditionals, too many paths to enumerate, and
// an instance where a depth-first walk of the arm choices took over 2^20
// node visits for some PC queries. Each query is checked against a seeded
// sample of 4096 random arm choices: no sampled path through the call has a
// shorter PC. The derived gain is met on every sampled path.
TEST(PathFree, WideInstanceMatchesSampledPaths) {
  workloads::RandomWorkloadParams params;
  params.call_sites = 48;
  const workloads::Workload w = workloads::random_workload(params, 6);
  const Flow flow(w.module, w.library);
  const cdfg::Cdfg& g = flow.entry_cdfg();
  const isel::ImpDatabase& db = flow.imp_database();
  const std::size_t k = cdfg::conditional_tree(g).conds.size();
  ASSERT_EQ(k, 22u);
  const ArmFrames frames = arm_frames(g);
  support::Rng rng(6);
  std::vector<cdfg::ExecPath> sample;
  for (int i = 0; i < 4096; ++i) sample.push_back(decided_path(frames, k, rng() >> (64 - k)));

  int compared = 0;
  for (const isel::SCall& sc : db.scalls()) {
    if (sc.node == cdfg::kInvalidNode) continue;
    const bool sampled = std::any_of(sample.begin(), sample.end(),
                                     [&](const cdfg::ExecPath& p) { return p.contains(sc.node); });
    const std::size_t consumable =
        cdfg::parallel_code(g, sc.node, pc_queries(db, 0).back()).consumed_scalls.size();
    for (const cdfg::PcOptions& q : pc_queries(db, consumable)) {
      SCOPED_TRACE("SC" + std::to_string(sc.site.value()) + " problem2 " +
                   std::to_string(q.allow_scall_software) + " max_consumed " +
                   std::to_string(q.max_consumed));
      const cdfg::ParallelCode got = cdfg::parallel_code(g, sc.node, q);
      std::int64_t cycles = 0;
      for (const cdfg::NodeIndex v : got.nodes) cycles += g.node(v).cycles;
      EXPECT_EQ(got.cycles, cycles);
      EXPECT_LE(got.consumed_scalls.size(), q.max_consumed);
      if (!sampled) continue;
      EXPECT_LE(got.cycles, pc_over_paths(g, sc.node, sample, q).cycles);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);

  const std::int64_t gmax = flow.max_feasible_gain();
  const Selection sel = flow.select(gmax);
  ASSERT_TRUE(sel.feasible);
  EXPECT_GE(sel.min_path_gain, gmax);
  for (const cdfg::ExecPath& p : sample) EXPECT_GE(path_gain(sel.chosen, db, g, p), gmax);
}

// Past 12 conditionals the path list is truncated, so the ladder's answers
// are checked against every path: with a one-node search every
// greedy-fallback answer meets its requirement on every path.
TEST(PathFree, GreedyFallbackMeetsRequirementOnEveryPath) {
  int fallbacks = 0;
  for (const auto& [sites, seed] : std::vector<std::pair<int, std::uint64_t>>{
           {30, 6}, {30, 35}, {30, 40}}) {
    workloads::RandomWorkloadParams params;
    params.call_sites = sites;
    const workloads::Workload w = workloads::random_workload(params, seed);
    const Flow flow(w.module, w.library);
    SCOPED_TRACE(std::to_string(sites) + " call sites, seed " + std::to_string(seed));
    ASSERT_GT(cdfg::conditional_tree(flow.entry_cdfg()).conds.size(), 12u);
    const std::vector<cdfg::ExecPath> paths = uncapped_paths(flow.entry_cdfg());
    const std::int64_t gmax = flow.max_feasible_gain();
    for (int k = 1; k <= 4; ++k) {
      const std::int64_t rg = gmax * k / 4;
      SelectOptions opt;
      opt.ilp.max_nodes = 1;
      const Selection sel = flow.select(rg, opt);
      if (sel.rung != DegradationRung::kGreedyFallback) continue;
      ++fallbacks;
      std::int64_t worst = std::numeric_limits<std::int64_t>::max();
      for (const cdfg::ExecPath& p : paths) {
        worst = std::min(worst, path_gain(sel.chosen, flow.imp_database(), flow.entry_cdfg(), p));
      }
      EXPECT_GE(worst, rg);
      EXPECT_GE(sel.min_path_gain, rg);
    }
  }
  EXPECT_GT(fallbacks, 0);
}

// Greedy runs on the conditional tree, so past 12 conditionals it finds the
// answer the truncated path list hid: where a one-node search has no
// incumbent, the ladder answers with greedy instead of "infeasible (not
// proven)", and the answer meets the requirement on every path.
TEST(PathFree, TreeGreedyAnswersWhereTheSearchHasNoIncumbent) {
  for (const auto& [seed, ks] : std::vector<std::pair<std::uint64_t, std::vector<int>>>{
           {6, {2, 3}}, {35, {2}}}) {
    workloads::RandomWorkloadParams params;
    params.call_sites = 30;
    const workloads::Workload w = workloads::random_workload(params, seed);
    const Flow flow(w.module, w.library);
    SCOPED_TRACE("30 call sites, seed " + std::to_string(seed));
    ASSERT_GT(cdfg::conditional_tree(flow.entry_cdfg()).conds.size(), 12u);
    const std::vector<cdfg::ExecPath> paths = uncapped_paths(flow.entry_cdfg());
    const std::int64_t gmax = flow.max_feasible_gain();
    for (const int k : ks) {
      const std::int64_t rg = gmax * k / 4;
      SCOPED_TRACE("rg = gmax * " + std::to_string(k) + " / 4");
      SelectOptions opt;
      opt.ilp.max_nodes = 1;
      const Selection sel = flow.select(rg, opt);
      ASSERT_EQ(sel.rung, DegradationRung::kGreedyFallback) << sel.degradation_detail;
      for (const cdfg::ExecPath& p : paths) {
        EXPECT_GE(path_gain(sel.chosen, flow.imp_database(), flow.entry_cdfg(), p), rg);
      }
      EXPECT_GE(sel.min_path_gain, rg);
    }
  }
}

// --- property: on random workloads the ILP never loses to greedy -----------------------

class RandomSelection : public ::testing::TestWithParam<int> {};

TEST_P(RandomSelection, IlpBeatsOrMatchesGreedyAndStaysFeasible) {
  workloads::RandomWorkloadParams params;
  params.call_sites = 8;
  params.leaf_functions = 4;
  params.ips = 5;
  workloads::Workload w =
      workloads::random_workload(params, static_cast<std::uint64_t>(GetParam()));
  Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  if (gmax <= 0) return;  // library happened to be useless for this app

  const std::int64_t rg = gmax / 2;
  const Selection ilp_sel = flow.select(rg);
  ASSERT_TRUE(ilp_sel.feasible);
  EXPECT_GE(ilp_sel.min_path_gain, rg);
  for (const cdfg::ExecPath& p : flow.paths()) {
    EXPECT_GE(path_gain(ilp_sel.chosen, flow.imp_database(), flow.entry_cdfg(), p), rg);
  }
  const Selection greedy_sel = flow.greedy(rg);
  if (greedy_sel.feasible) {
    EXPECT_GE(greedy_sel.total_area(), ilp_sel.total_area() - 1e-9);
  }
  // The exact optimum at gmax must also exist.
  EXPECT_TRUE(flow.select(gmax).feasible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSelection, ::testing::Range(0, 25));

}  // namespace
}  // namespace partita::select
