// Quickstart: the whole pipeline on a ten-line application.
//
//   1. Write the application in KL (the kernel language): functions, code
//      segments with cycle counts, calls, dependence annotations.
//   2. Describe the available IP blocks.
//   3. Run the Flow: profile -> CDFG -> s-calls -> IMP enumeration -> ILP.
//   4. Ask for a required performance gain and read the selected
//      IP/interface per s-call.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "frontend/parser.hpp"
#include "iplib/loader.hpp"
#include "select/flow.hpp"
#include "sim/cosim.hpp"

// A toy voice pipeline: one hot filter call dominated by software time, some
// independent post-processing that can overlap an IP run.
static const char* kApp = R"(
module quickstart;

func fir scall sw_cycles 20000;      # the acceleration candidate

func main {
  seg read_samples 500 writes(buf);
  call fir reads(buf) writes(filtered);
  seg agc 3000 reads(buf) writes(gain);      # independent of fir: overlaps!
  seg emit 800 reads(filtered, gain);
}
)";

static const char* kLibrary = R"(
ip FIR_CORE {
  area 9
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn fir cycles 4000 in 64 out 64
}
)";

int main() {
  using namespace partita;

  // 1+2. Parse the application and the IP library.
  support::DiagnosticEngine diags;
  auto module = frontend::parse_module(kApp, diags);
  auto library = iplib::load_library(kLibrary, diags);
  if (!module || !library) {
    std::fprintf(stderr, "%s", diags.render_all().c_str());
    return 1;
  }

  // 3. Run every analysis stage.
  select::Flow flow(*module, *library);
  std::printf("application software time : %lld cycles\n",
              static_cast<long long>(flow.profile().total_cycles));
  std::printf("s-call candidates         : %zu\n", flow.scalls().size());
  std::printf("implementation methods    : %zu\n", flow.imp_database().imps().size());
  for (const isel::Imp& imp : flow.imp_database().imps()) {
    std::printf("  IMP%u: %s\n", imp.index, imp.describe(*library).c_str());
  }

  // 4. Select for a required gain of 17,000 cycles.
  const std::int64_t rg = 17000;
  const select::Selection sel = flow.select(rg);
  if (!sel.feasible) {
    std::printf("\nno IP/interface combination reaches a gain of %lld\n",
                static_cast<long long>(rg));
    return 0;
  }
  std::printf("\nselection for RG=%lld:\n  %s\n  total area %.2f (IP %.2f + interface %.2f)\n",
              static_cast<long long>(rg),
              sel.describe(flow.imp_database(), *library).c_str(), sel.total_area(),
              sel.ip_area, sel.interface_area);

  // Cross-check with the cycle-level co-simulator.
  sim::CoSimulator cosim(*module, flow.imp_database(), flow.entry_cdfg());
  support::Rng rng(1);
  const auto sw = cosim.run(nullptr, rng);
  const auto hw = cosim.run(&sel, rng);
  std::printf("\nco-simulation: %lld -> %lld cycles (gain %lld, %lld of them overlapped)\n",
              static_cast<long long>(sw.total_cycles),
              static_cast<long long>(hw.total_cycles),
              static_cast<long long>(sw.total_cycles - hw.total_cycles),
              static_cast<long long>(hw.overlap_cycles));
  return 0;
}
