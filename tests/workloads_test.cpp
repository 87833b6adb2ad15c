// Tests that the built-in workloads have the paper's problem-instance shape
// and that the random generator produces valid, deterministic instances.
#include <gtest/gtest.h>

#include "ir/printer.hpp"
#include "ir/verify.hpp"
#include "select/flow.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace partita::workloads {
namespace {

TEST(GsmEncoder, PaperShape) {
  Workload w = gsm_encoder();
  support::DiagnosticEngine diags;
  EXPECT_TRUE(ir::verify_module(w.module, diags)) << diags.render_all();
  // Paper: 18 s-calls and 23 IPs for the encoder.
  EXPECT_EQ(w.library.size(), 23u);
  select::Flow flow(w.module, w.library);
  EXPECT_EQ(flow.scalls().size(), 18u);
  EXPECT_GE(flow.imp_database().imps().size(), 40u);  // paper had 42 IMPs
  EXPECT_EQ(flow.paths().size(), 2u);  // voiced/unvoiced conditional
}

TEST(GsmEncoder, HasParallelCodeAndSwScallImps) {
  Workload w = gsm_encoder();
  select::Flow flow(w.module, w.library);
  int pc = 0, pc_sw = 0;
  for (const isel::Imp& imp : flow.imp_database().imps()) {
    pc += imp.pc_use == isel::PcUse::kPlain;
    pc_sw += imp.pc_use == isel::PcUse::kWithScallSw;
  }
  // The paper reports IMPs exploiting parallel code, one of which uses the
  // software implementation of another s-call.
  EXPECT_GT(pc, 0);
  EXPECT_GT(pc_sw, 0);
}

TEST(GsmEncoder, SomeFunctionsHaveAlternativeIps) {
  Workload w = gsm_encoder();
  int multi_alternative = 0;
  for (const std::string& fn : w.library.supported_functions()) {
    if (w.library.implementors_of(fn).size() >= 2) ++multi_alternative;
  }
  EXPECT_GE(multi_alternative, 3);  // "two or three different IPs available"
}

TEST(GsmDecoder, PaperShape) {
  Workload w = gsm_decoder();
  support::DiagnosticEngine diags;
  EXPECT_TRUE(ir::verify_module(w.module, diags)) << diags.render_all();
  EXPECT_EQ(w.library.size(), 10u);  // paper: 10 IPs
  select::Flow flow(w.module, w.library);
  EXPECT_EQ(flow.scalls().size(), 11u);  // paper: 11 s-calls
}

TEST(GsmDecoder, HasSubTemplateRateIp) {
  // The SC10 story needs an IP whose native rate is below the type-0
  // template rate (4).
  Workload w = gsm_decoder();
  bool found = false;
  for (const iplib::IpDescriptor& ip : w.library.all()) {
    if (ip.in_rate < 4 && ip.in_rate == ip.out_rate) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(JpegEncoder, HierarchyPresent) {
  Workload w = jpeg_encoder();
  support::DiagnosticEngine diags;
  EXPECT_TRUE(ir::verify_module(w.module, diags)) << diags.render_all();
  EXPECT_EQ(w.library.size(), 5u);  // 2D-DCT, 1D-DCT, FFT, C-MUL, zig-zag
  // dct2d -> dct1d -> fft -> cmul chain.
  const ir::FuncId dct2d = w.module.find_function("dct2d");
  ASSERT_TRUE(dct2d.valid());
  const auto below = w.module.callees_of(dct2d);
  ASSERT_EQ(below.size(), 1u);
  EXPECT_EQ(w.module.function(below[0]).name(), "dct1d");
}

TEST(JpegEncoder, ZigzagExcludesType0) {
  Workload w = jpeg_encoder();
  const iplib::IpDescriptor& zz = w.library.ip(w.library.find("IP5"));
  EXPECT_NE(zz.in_rate, zz.out_rate);
  iface::KernelParams k;
  EXPECT_FALSE(iface::applicable(iface::InterfaceType::kType0, zz, k).ok);
}

TEST(AdpcmCodec, ExercisesModelCorners) {
  Workload w = adpcm_codec();
  support::DiagnosticEngine diags;
  EXPECT_TRUE(ir::verify_module(w.module, diags)) << diags.render_all();
  // Non-pipelined, handshake-protocol and multi-function IPs all present.
  bool non_pipelined = false, handshake = false, multi = false;
  for (const iplib::IpDescriptor& ip : w.library.all()) {
    non_pipelined |= !ip.pipelined;
    handshake |= ip.protocol == iplib::Protocol::kHandshake;
    multi |= ip.is_multi_function();
  }
  EXPECT_TRUE(non_pipelined);
  EXPECT_TRUE(handshake);
  EXPECT_TRUE(multi);
}

TEST(AdpcmCodec, SweepIsFeasibleAndMonotone) {
  Workload w = adpcm_codec();
  select::Flow flow(w.module, w.library);
  const std::int64_t gmax = flow.max_feasible_gain();
  ASSERT_GT(gmax, 0);
  double prev = -1;
  for (int k = 1; k <= 5; ++k) {
    const select::Selection sel = flow.select(gmax * k / 5);
    ASSERT_TRUE(sel.feasible) << k;
    EXPECT_GE(sel.total_area(), prev - 1e-9);
    prev = sel.total_area();
  }
}

TEST(AdpcmCodec, NonPipelinedIpTimingSerializes) {
  // The combinational predictor array must be charged T_IF + T_IP under
  // type 0 -- check the database agrees with the analytic model.
  Workload w = adpcm_codec();
  select::Flow flow(w.module, w.library);
  const iplib::IpDescriptor& pred = w.library.ip(w.library.find("PRED_ARRAY"));
  ASSERT_FALSE(pred.pipelined);
  iface::KernelParams k;
  const iface::InterfaceTiming t =
      iface::interface_timing(iface::InterfaceType::kType0, pred, pred.functions[0], 0, k);
  EXPECT_EQ(t.total_cycles, t.t_if + t.t_ip);
  bool found = false;
  for (const isel::Imp& imp : flow.imp_database().imps()) {
    if (imp.ip == pred.id && imp.iface_type == iface::InterfaceType::kType0 &&
        !imp.flattened) {
      EXPECT_EQ(imp.timing.total_cycles, t.total_cycles);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FigCases, ParseAndVerify) {
  for (auto make : {fig9_case, fig10_case}) {
    Workload w = make();
    support::DiagnosticEngine diags;
    EXPECT_TRUE(ir::verify_module(w.module, diags)) << w.name << ": " << diags.render_all();
  }
}

TEST(WorkloadSource, ExposesKlText) {
  EXPECT_NE(workload_source("gsm_encoder").find("module gsm_encoder"), std::string::npos);
  EXPECT_NE(workload_source("jpeg_encoder").find("dct2d"), std::string::npos);
  EXPECT_TRUE(workload_source("nope").empty());
}

TEST(Builtin, EveryNameMatchesItsFactory) {
  const std::pair<const char*, Workload (*)()> table[] = {
      {"gsm_encoder", gsm_encoder}, {"gsm_decoder", gsm_decoder},
      {"jpeg_encoder", jpeg_encoder}, {"fig9", fig9_case},
      {"fig10", fig10_case},         {"adpcm_codec", adpcm_codec},
  };
  for (const auto& [name, factory] : table) {
    const std::optional<Workload> got = builtin(name);
    ASSERT_TRUE(got.has_value()) << name;
    const Workload want = factory();
    EXPECT_EQ(got->name, want.name);
    EXPECT_EQ(ir::print_module(got->module), ir::print_module(want.module)) << name;
    ASSERT_EQ(got->library.size(), want.library.size()) << name;
    for (std::size_t i = 0; i < want.library.size(); ++i) {
      EXPECT_EQ(got->library.all()[i].name, want.library.all()[i].name) << name;
    }
    EXPECT_FALSE(workload_source(name).empty()) << name;  // registry entry
  }
  EXPECT_FALSE(builtin("nope").has_value());
  EXPECT_FALSE(builtin("").has_value());
}

// --- random workloads ---------------------------------------------------------------

TEST(RandomWorkload, DeterministicForSeed) {
  RandomWorkloadParams p;
  const std::string a = random_workload_kl(p, 17);
  const std::string b = random_workload_kl(p, 17);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, random_workload_kl(p, 18));
}

class RandomWorkloadValid : public ::testing::TestWithParam<int> {};

TEST_P(RandomWorkloadValid, ParsesVerifiesAndFlows) {
  RandomWorkloadParams p;
  Workload w = random_workload(p, static_cast<std::uint64_t>(GetParam()));
  support::DiagnosticEngine diags;
  ASSERT_TRUE(ir::verify_module(w.module, diags)) << diags.render_all();
  select::Flow flow(w.module, w.library);
  // Profile and paths must be coherent.
  EXPECT_GT(flow.profile().total_cycles, 0);
  EXPECT_GE(flow.paths().size(), 1u);
  for (const isel::Imp& imp : flow.imp_database().imps()) {
    EXPECT_GT(imp.gain_per_exec, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadValid, ::testing::Range(0, 20));

}  // namespace
}  // namespace partita::workloads
