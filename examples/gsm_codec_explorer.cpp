// GSM codec design-space explorer.
//
// Reproduces the paper's main use case interactively: for the GSM encoder
// and decoder, sweep the required gain in caller-chosen steps, print the
// Table 1/2-style rows, and co-simulate the selected design versus pure
// software. Optional argv[1] selects "encoder"/"decoder"; argv[2] the number
// of sweep steps (default 8, the paper's row count).
//
// Build & run:  ./build/examples/gsm_codec_explorer encoder 8
#include <cstdio>
#include <cstdlib>
#include <string>

#include "select/flow.hpp"
#include "sim/cosim.hpp"
#include "support/strings.hpp"
#include "support/text_table.hpp"
#include "workloads/workloads.hpp"

using namespace partita;

static void explore(const workloads::Workload& w, int steps) {
  select::Flow flow(w.module, w.library);
  sim::CoSimulator cosim(w.module, flow.imp_database(), flow.entry_cdfg());
  const std::int64_t gmax = flow.max_feasible_gain();

  std::printf("== %s ==\n", w.name.c_str());
  std::printf("s-calls %zu | IPs %zu | IMPs %zu | max guaranteed gain %s\n\n",
              flow.scalls().size(), w.library.size(), flow.imp_database().imps().size(),
              support::with_commas(gmax).c_str());

  support::TextTable t(
      {"RG", "G", "area", "S", "O", "sim sw", "sim accel", "sim gain"});
  t.set_alignment(std::vector<support::Align>(8, support::Align::kRight));

  for (int k = 1; k <= steps; ++k) {
    const std::int64_t rg = gmax * k / steps;
    const select::Selection sel = flow.select(rg);
    if (!sel.feasible) {
      t.add_row({support::with_commas(rg), "-", "-", "-", "-", "-", "-", "infeasible"});
      continue;
    }
    support::Rng r1(7), r2(7);
    const auto sw = cosim.run(nullptr, r1);
    const auto hw = cosim.run(&sel, r2);
    t.add_row({support::with_commas(rg), support::with_commas(sel.min_path_gain),
               support::compact_double(sel.total_area()),
               std::to_string(sel.s_instructions), std::to_string(sel.selected_scalls),
               support::with_commas(sw.total_cycles), support::with_commas(hw.total_cycles),
               support::with_commas(sw.total_cycles - hw.total_cycles)});
  }
  std::fputs(t.render().c_str(), stdout);

  // Show the concrete implementation of the densest design point.
  const select::Selection top = flow.select(gmax);
  std::printf("\nfull-throttle design (RG = Gmax):\n  %s\n\n",
              top.describe(flow.imp_database(), w.library).c_str());
}

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "both";
  const int steps = argc > 2 ? std::atoi(argv[2]) : 8;
  if (steps < 1 || steps > 64) {
    std::fprintf(stderr, "steps must be within 1..64\n");
    return 1;
  }
  if (which == "encoder" || which == "both") explore(workloads::gsm_encoder(), steps);
  if (which == "decoder" || which == "both") explore(workloads::gsm_decoder(), steps);
  if (which != "encoder" && which != "decoder" && which != "both") {
    std::fprintf(stderr, "usage: %s [encoder|decoder|both] [steps]\n", argv[0]);
    return 1;
  }
  return 0;
}
