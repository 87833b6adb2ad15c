// Fig. 2: parallel execution of the kernel and an IP. The figure's claim is
// that buffered interfaces overlap kernel code with the IP run, shortening
// the total schedule by MIN(T_IP, T_C). We regenerate the series two ways:
//
//   analytic -- the Section 3 timing model (interface_timing), sweeping the
//               parallel-code length T_C for a fixed IP;
//   simulated -- the cycle-level co-simulator executing a one-s-call
//               application with exactly that much independent trailing code.
//
// The two series must coincide, and the no-overlap interfaces (type 0/2)
// must stay flat.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "frontend/parser.hpp"
#include "iplib/loader.hpp"
#include "sim/cosim.hpp"
#include "support/text_table.hpp"

namespace {

using namespace partita;

constexpr std::int64_t kTip = 6000;

workloads::Workload make_case(std::int64_t pc_cycles) {
  char kl[512];
  std::snprintf(kl, sizeof kl, R"(
module fig2;
func fir scall sw_cycles 20000;
func main {
  seg pre 100 writes(a);
  call fir reads(a) writes(x);
  seg pc_material %lld reads(a) writes(z);
  seg post 100 reads(x, z);
}
)",
                static_cast<long long>(pc_cycles));
  const char* lib = R"(
ip FIR_IP {
  area 8
  ports in 4 out 4
  rate in 1 out 1
  latency 16
  pipelined
  protocol sync
  fn fir cycles 6000 in 64 out 64
}
)";
  support::DiagnosticEngine diags;
  auto m = frontend::parse_module(kl, diags);
  auto l = iplib::load_library(lib, diags);
  if (!m || !l) {
    std::fprintf(stderr, "fig2 case failed to build:\n%s", diags.render_all().c_str());
    std::abort();
  }
  return {"fig2", std::move(*m), std::move(*l)};
}

void BM_Fig2_SimulatedRun(benchmark::State& state) {
  workloads::Workload w = make_case(state.range(0));
  select::Flow flow(w.module, w.library);
  sim::CoSimulator cosim(w.module, flow.imp_database(), flow.entry_cdfg());
  const select::Selection sel = flow.select(flow.max_feasible_gain());
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cosim.run(&sel, rng).total_cycles);
  }
}
BENCHMARK(BM_Fig2_SimulatedRun)->Arg(0)->Arg(2000)->Arg(8000)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Fig. 2: overlap of kernel (parallel code) and IP execution ===\n");
  std::printf("fixed IP: T_IP = %lld cycles; buffered interface (type 3)\n\n",
              static_cast<long long>(kTip));

  support::TextTable table({"T_C (parallel code)", "analytic total", "simulated total",
                            "overlap credit", "expected MIN(T_IP, T_C)"});
  table.set_alignment({support::Align::kRight, support::Align::kRight,
                       support::Align::kRight, support::Align::kRight,
                       support::Align::kRight});

  bool all_match = true;
  for (std::int64_t tc : {0, 1000, 2000, 4000, 6000, 8000, 12000}) {
    workloads::Workload w = make_case(tc);
    select::Flow flow(w.module, w.library);
    sim::CoSimulator cosim(w.module, flow.imp_database(), flow.entry_cdfg());

    // Pick the best buffered IMP (the selector will, at max gain).
    const select::Selection sel = flow.select(flow.max_feasible_gain());
    const isel::Imp& imp = flow.imp_database().imps()[sel.chosen.at(0)];

    support::Rng r1(1), r2(1);
    const std::int64_t sim_sw = cosim.run(nullptr, r1).total_cycles;
    const sim::SimResult hw = cosim.run(&sel, r2);
    const std::int64_t analytic_total = sim_sw - sel.min_path_gain;
    const std::int64_t expected_credit = std::min<std::int64_t>(kTip, tc);

    table.add_row({std::to_string(tc), std::to_string(analytic_total),
                   std::to_string(hw.total_cycles), std::to_string(hw.overlap_cycles),
                   std::to_string(expected_credit)});
    all_match &= analytic_total == hw.total_cycles && hw.overlap_cycles == expected_credit;
    (void)imp;
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nanalytic model %s the cycle-level simulation\n\n",
              all_match ? "MATCHES" : "DIVERGES FROM");

  return bench::finish_benchmarks(argc, argv);
}
