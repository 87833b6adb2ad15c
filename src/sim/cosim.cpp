#include "sim/cosim.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace partita::sim {

namespace {

/// Skip-bookkeeping key: statements executed early must only shadow the
/// occurrence in their own function (ids are per-function arenas).
std::uint64_t stmt_key(ir::FuncId fn, ir::StmtId stmt) {
  return (static_cast<std::uint64_t>(fn.value()) << 32) | stmt.value();
}

}  // namespace

struct CoSimulator::RunState {
  support::Rng* rng = nullptr;
  const select::Selection* sel = nullptr;
  SimResult* res = nullptr;

  std::int64_t t = 0;  // kernel wall clock

  /// Top-level call site -> chosen IMP.
  std::unordered_map<std::uint32_t, isel::ImpIndex> site_imp;
  /// Statements already executed early (value = outstanding skip count).
  std::unordered_map<std::uint64_t, int> pending_skips;
  /// Function accelerated by the *inner* IP of an active flattened IMP ->
  /// cycles of one accelerated execution. (Stack discipline: saved/restored
  /// around the flattened call.)
  std::unordered_map<std::uint32_t, std::int64_t> inner_accel;
  /// Set while executing parallel code, to suppress early-exec recursion.
  bool in_parallel_code = false;
};

CoSimulator::CoSimulator(const ir::Module& module, const isel::ImpDatabase& db,
                         const cdfg::Cdfg& entry_cdfg)
    : module_(module), db_(db), entry_cdfg_(entry_cdfg) {}

void CoSimulator::exec_seq(RunState& st, const ir::Function& fn,
                           const std::vector<ir::StmtId>& seq) const {
  for (ir::StmtId id : seq) exec_stmt(st, fn, id);
}

void CoSimulator::exec_stmt(RunState& st, const ir::Function& fn, ir::StmtId id) const {
  // Skip statements that already ran as parallel code.
  auto skip_it = st.pending_skips.find(stmt_key(fn.id(), id));
  if (skip_it != st.pending_skips.end() && skip_it->second > 0) {
    --skip_it->second;
    return;
  }

  const ir::Stmt& s = fn.stmt(id);
  switch (s.kind) {
    case ir::StmtKind::kSeg:
      st.t += s.cycles;
      break;
    case ir::StmtKind::kCall: {
      // Top-level selected s-call?
      if (st.sel && fn.id() == module_.entry()) {
        auto it = st.site_imp.find(s.call_site.value());
        if (it != st.site_imp.end() && !st.in_parallel_code) {
          exec_selected_call(st, fn, s, db_.imps()[it->second]);
          return;
        }
      }
      // Inner acceleration from an active flattened IMP?
      auto acc = st.inner_accel.find(s.callee.value());
      if (acc != st.inner_accel.end()) {
        st.t += acc->second;
        st.res->ip_active_cycles += acc->second;
        return;
      }
      exec_software_call(st, module_.function(s.callee));
      break;
    }
    case ir::StmtKind::kIf:
      if (st.rng->chance(s.taken_prob)) exec_seq(st, fn, s.then_stmts);
      else exec_seq(st, fn, s.else_stmts);
      break;
    case ir::StmtKind::kLoop:
      for (std::int64_t i = 0; i < s.trip_count; ++i) exec_seq(st, fn, s.body_stmts);
      break;
  }
}

void CoSimulator::exec_software_call(RunState& st, const ir::Function& callee) const {
  if (callee.declared_sw_cycles()) {
    st.t += *callee.declared_sw_cycles();
    return;
  }
  exec_seq(st, callee, callee.body());
}

void CoSimulator::exec_selected_call(RunState& st, const ir::Function& fn,
                                     const ir::Stmt& s, const isel::Imp& imp) const {
  ScallStats& stats = st.res->per_site[s.call_site.value()];
  ++stats.executions;
  const std::int64_t t_before = st.t;

  if (imp.flattened) {
    // Callee stays in software; calls to the accelerated descendant run on
    // the inner IP. Save/restore to respect nesting.
    const ir::FuncId target = module_.find_function(imp.ip_function->function);
    PARTITA_ASSERT(target.valid());
    const auto saved = st.inner_accel;
    st.inner_accel[target.value()] = imp.timing.total_cycles;
    exec_software_call(st, module_.function(s.callee));
    st.inner_accel = saved;
    stats.cycles += st.t - t_before;
    return;
  }

  if (!iface::is_buffered(imp.iface_type)) {
    // Type 0: the kernel runs the controller. Type 2: the DMA owns the data
    // memories. Either way the kernel makes no other progress.
    st.t += imp.timing.total_cycles;
    st.res->ip_active_cycles += imp.timing.t_ip;
    stats.cycles += st.t - t_before;
    return;
  }

  // Buffered (types 1/3): fill, run + parallel code, wait, drain. The core
  // (IP + buffer streaming, MAX-composed for pipelined IPs, serialized for
  // combinational ones) is recovered from the timing identity
  //   total = t_if_in + core + t_if_out - overlap.
  const std::int64_t core =
      imp.timing.total_cycles - imp.timing.t_if_in - imp.timing.t_if_out +
      imp.timing.overlap;
  st.t += imp.timing.t_if_in;
  const std::int64_t core_start = st.t;

  if (!imp.pc_nodes.empty() && !st.in_parallel_code) {
    // Execute the IMP's parallel code -- its statements control-equivalent
    // to the call -- on the kernel while the IP runs.
    const cdfg::NodeIndex call = entry_cdfg_.node_of_call(s.call_site);
    st.in_parallel_code = true;
    for (cdfg::NodeIndex n : imp.pc_nodes) {
      if (!entry_cdfg_.same_branch(call, n)) continue;  // static schedule
      const ir::StmtId stmt = entry_cdfg_.node(n).stmt;
      const std::uint64_t key = stmt_key(fn.id(), stmt);
      auto hoisted = st.pending_skips.find(key);
      if (hoisted != st.pending_skips.end() && hoisted->second > 0) {
        continue;  // already hoisted by an earlier overlapping s-call
      }
      exec_stmt(st, fn, stmt);
      ++st.pending_skips[key];  // absorb the in-order occurrence later
    }
    st.in_parallel_code = false;
  }

  const std::int64_t pc_exec = st.t - core_start;
  const std::int64_t overlap = std::min(core, pc_exec);
  st.res->overlap_cycles += overlap;
  stats.overlap += overlap;
  st.res->ip_active_cycles += core;

  st.t = std::max(st.t, core_start + core);
  st.t += imp.timing.t_if_out;
  stats.cycles += st.t - t_before;
}

SimResult CoSimulator::run(const select::Selection* selection, support::Rng& rng) const {
  SimResult res;
  RunState st;
  st.rng = &rng;
  st.sel = selection;
  st.res = &res;
  if (selection) {
    for (isel::ImpIndex idx : selection->chosen) {
      st.site_imp.emplace(db_.imps()[idx].scall.value(), idx);
    }
  }
  const ir::Function& entry = module_.function(module_.entry());
  exec_seq(st, entry, entry.body());
  res.total_cycles = st.t;
  return res;
}

SimResult CoSimulator::run_average(const select::Selection* selection, support::Rng& rng,
                                   std::size_t runs) const {
  // invariant: run counts are validated at the CLI boundary (--runs 1..100000).
  PARTITA_ASSERT(runs > 0);
  SimResult acc;
  for (std::size_t r = 0; r < runs; ++r) {
    const SimResult one = run(selection, rng);
    acc.total_cycles += one.total_cycles;
    acc.overlap_cycles += one.overlap_cycles;
    acc.ip_active_cycles += one.ip_active_cycles;
    for (const auto& [site, stats] : one.per_site) {
      ScallStats& agg = acc.per_site[site];
      agg.executions += stats.executions;
      agg.cycles += stats.cycles;
      agg.overlap += stats.overlap;
    }
  }
  const auto n = static_cast<std::int64_t>(runs);
  acc.total_cycles = (acc.total_cycles + n / 2) / n;
  acc.overlap_cycles = (acc.overlap_cycles + n / 2) / n;
  acc.ip_active_cycles = (acc.ip_active_cycles + n / 2) / n;
  return acc;
}

}  // namespace partita::sim
