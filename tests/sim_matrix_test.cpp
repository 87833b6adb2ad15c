// Parameterized simulator-vs-analytic matrix: IP rate/latency/pipelining
// configurations crossed with the interface repertoire. For each
// configuration the co-simulated end-to-end gain must equal the selection's
// guaranteed gain on a straight-line program -- exact, cycle for cycle --
// for both the cheapest and the most powerful feasible design point.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "frontend/parser.hpp"
#include "iplib/loader.hpp"
#include "select/flow.hpp"
#include "sim/cosim.hpp"

namespace partita::sim {
namespace {

struct IpConfig {
  int in_rate;
  int out_rate;
  int latency;
  bool pipelined;
  int in_ports;
  std::int64_t t_ip;
};

std::string config_name(const IpConfig& c) {
  std::ostringstream os;
  os << "r" << c.in_rate << "_" << c.out_rate << "_lat" << c.latency
     << (c.pipelined ? "_pipe" : "_comb") << "_p" << c.in_ports << "_t" << c.t_ip;
  return os.str();
}

class SimMatrix : public ::testing::TestWithParam<IpConfig> {};

TEST_P(SimMatrix, SimulatedGainEqualsGuaranteed) {
  const IpConfig& c = GetParam();

  std::ostringstream lib;
  lib << "ip ACC {\n  area 9\n  ports in " << c.in_ports << " out 2\n  rate in "
      << c.in_rate << " out " << c.out_rate << "\n  latency " << c.latency << "\n  "
      << (c.pipelined ? "pipelined" : "combinational")
      << "\n  protocol sync\n  fn f cycles " << c.t_ip << " in 64 out 64\n}\n";

  constexpr std::string_view kApp = R"(
module m;
func f scall sw_cycles 20000;
func main {
  seg pre 500 writes(a);
  call f reads(a) writes(x);
  seg pc_mat 3000 reads(a) writes(z);
  seg post 700 reads(x, z);
}
)";

  support::DiagnosticEngine diags;
  auto module = frontend::parse_module(kApp, diags);
  auto library = iplib::load_library(lib.str(), diags);
  ASSERT_TRUE(module && library) << diags.render_all();

  select::Flow flow(*module, *library);
  CoSimulator cosim(*module, flow.imp_database(), flow.entry_cdfg());
  const std::int64_t gmax = flow.max_feasible_gain();
  if (gmax <= 0) GTEST_SKIP() << "IP useless for this configuration";

  for (const std::int64_t rg : {std::int64_t{1}, gmax}) {
    const select::Selection sel = flow.select(rg);
    ASSERT_TRUE(sel.feasible) << config_name(c) << " rg=" << rg;
    support::Rng r1(1), r2(1);
    const SimResult sw = cosim.run(nullptr, r1);
    const SimResult hw = cosim.run(&sel, r2);
    EXPECT_EQ(sw.total_cycles - hw.total_cycles, sel.min_path_gain)
        << config_name(c) << " rg=" << rg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimMatrix,
    ::testing::Values(
        // classic template-rate pipelined IP
        IpConfig{4, 4, 16, true, 2, 5000},
        // fast IP: type 0 must slow its clock, hardware types win
        IpConfig{1, 1, 16, true, 2, 5000},
        IpConfig{2, 2, 8, true, 2, 3000},
        // slow IP: template pads NOPs
        IpConfig{8, 8, 32, true, 2, 5000},
        // asymmetric rates: type 0 excluded
        IpConfig{2, 4, 16, true, 2, 5000},
        IpConfig{1, 2, 8, true, 2, 2500},
        // wide IP: buffered interfaces only
        IpConfig{2, 2, 16, true, 4, 5000},
        IpConfig{1, 1, 8, true, 4, 12000},
        // non-pipelined (combinational array)
        IpConfig{4, 4, 24, false, 2, 4000},
        IpConfig{2, 2, 12, false, 2, 8000},
        // IP slower than software: only overlap saves it
        IpConfig{4, 4, 16, true, 2, 18000},
        // trivially fast IP: transfer-bound
        IpConfig{4, 4, 4, true, 2, 50}),
    [](const ::testing::TestParamInfo<IpConfig>& info) {
      return config_name(info.param);
    });

}  // namespace
}  // namespace partita::sim
