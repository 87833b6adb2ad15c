// Kernel + IP co-simulation.
//
// Executes the application statement-by-statement on a timeline with two
// actors -- the ASIP kernel and the (single-at-a-time) IP accelerator --
// under a Selection produced by the selector:
//
//  * unselected calls and plain segments run on the kernel for their software
//    cycles;
//  * s-calls implemented through type 0/2 occupy the kernel (software
//    controller) or the data memories (DMA) for the analytic interface time,
//    so nothing overlaps;
//  * s-calls implemented through type 1/3 fill the buffer (T_IF_IN), start
//    the IP, and -- when the IMP carries parallel code -- execute the IMP's
//    own PC nodes (Imp::pc_nodes, decided once by the IMP database) on the
//    kernel while the IP runs, then wait for the IP and drain (T_IF_OUT).
//    Statements executed early are skipped when control reaches them in
//    normal order.
//
// A scheduling note: the analytic model (Definitions 3-5) lets the PC live in
// a deeper branch region than the call, guaranteeing the min-over-paths gain.
// A statically scheduled overlap, however, may only hoist statements that are
// control-equivalent to the call; the simulator runs only those PC nodes, so
// simulated gains can fall slightly short of the analytic credit when a PC
// crosses into a conditional arm. On control-equivalent layouts, straight-line
// code included, the simulated gain equals the guaranteed one.
//
// The simulator's purpose is validating the Section 3 equations (Fig. 2's
// overlap picture) against an independent execution model, and providing the
// bench harness with measured (not just predicted) cycle counts.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "select/selection.hpp"
#include "support/rng.hpp"

namespace partita::sim {

struct ScallStats {
  std::int64_t executions = 0;
  std::int64_t cycles = 0;   // wall time attributed to the s-call
  std::int64_t overlap = 0;  // cycles the kernel worked while the IP ran
};

struct SimResult {
  std::int64_t total_cycles = 0;
  std::int64_t overlap_cycles = 0;
  std::int64_t ip_active_cycles = 0;
  /// Keyed by CallSiteId value of the top-level s-call.
  std::unordered_map<std::uint32_t, ScallStats> per_site;
};

class CoSimulator {
 public:
  CoSimulator(const ir::Module& module, const isel::ImpDatabase& db,
              const cdfg::Cdfg& entry_cdfg);

  /// One run. `selection` may be nullptr for the pure-software reference.
  /// Branches are resolved with `rng` using their profile probabilities.
  SimResult run(const select::Selection* selection, support::Rng& rng) const;

  /// Convenience: averages `runs` Monte-Carlo executions.
  SimResult run_average(const select::Selection* selection, support::Rng& rng,
                        std::size_t runs) const;

 private:
  struct RunState;

  void exec_seq(RunState& st, const ir::Function& fn,
                const std::vector<ir::StmtId>& seq) const;
  void exec_stmt(RunState& st, const ir::Function& fn, ir::StmtId id) const;
  void exec_software_call(RunState& st, const ir::Function& callee) const;
  void exec_selected_call(RunState& st, const ir::Function& fn, const ir::Stmt& s,
                          const isel::Imp& imp) const;

  const ir::Module& module_;
  const isel::ImpDatabase& db_;
  const cdfg::Cdfg& entry_cdfg_;
};

}  // namespace partita::sim
