// Golden-file regression tests for the JSON selection export.
//
// Each case runs a fixed workload at a fixed required gain (single-threaded,
// so the canonical tie-break makes the selection bit-stable) and compares
// the full JSON document against tests/golden/*.json. The only scrubbed
// field is solver.peak_arena_bytes, which tracks allocator behavior rather
// than solver decisions. Regenerate after an intentional schema change with:
//
//   ./export_golden_test --update-golden
//
// The degraded case arms the "ilp.deadline" fault site so the degradation
// object (rung / termination / detail) and the truncated SolverStats are
// covered without real wall-clock pressure.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "select/export.hpp"
#include "select/flow.hpp"
#include "support/fault_injection.hpp"
#include "workloads/workloads.hpp"

namespace partita {

// Set from main(); not in the anonymous namespace so main can reach it.
bool g_update_golden = false;

namespace {

std::string golden_path(const std::string& name) {
  return std::string(PARTITA_TEST_SOURCE_DIR) + "/golden/" + name + ".json";
}

std::string scrub(std::string json) {
  static const std::regex arena("\"peak_arena_bytes\": \\d+");
  return std::regex_replace(json, arena, "\"peak_arena_bytes\": 0");
}

void check_golden(const std::string& name, const std::string& raw_json) {
  const std::string json = scrub(raw_json);
  const std::string path = golden_path(name);
  if (g_update_golden) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << json;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " -- run ./export_golden_test --update-golden";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "export JSON drifted from " << path
      << "; if intentional, regenerate with --update-golden";
}

std::string select_json(workloads::Workload (*make)(), std::int64_t rg_num,
                        std::int64_t rg_den) {
  const workloads::Workload w = make();
  const select::Flow flow(w.module, w.library);
  select::SelectOptions opt;  // defaults: canonical ties, a reproducible search
  const std::int64_t rg = rg_den ? flow.max_feasible_gain(opt) * rg_num / rg_den
                                 : rg_num;
  const select::Selection sel = flow.select(rg, opt);
  return select::to_json(sel, flow.imp_database(), w.library, rg);
}

TEST(ExportGolden, GsmDecoderHalfGain) {
  check_golden("gsm_decoder_half_gain", select_json(workloads::gsm_decoder, 1, 2));
}

TEST(ExportGolden, Fig9ProblemTwoOptimum) {
  check_golden("fig9_rg12000", select_json(workloads::fig9_case, 12000, 0));
}

TEST(ExportGolden, JpegEncoderHierarchy) {
  check_golden("jpeg_encoder_half_gain", select_json(workloads::jpeg_encoder, 1, 2));
}

TEST(ExportGolden, InfeasibleSelection) {
  check_golden("fig9_infeasible",
               select_json(workloads::fig9_case, 1'000'000'000'000, 0));
}

TEST(ExportGolden, DegradedDeadlineFallback) {
  // The armed deadline trips at the first wave boundary: the ILP truncates,
  // the greedy rung answers, and the export must carry the degradation
  // object plus truncated solver stats.
  support::ScopedFault fault("ilp.deadline");
  check_golden("gsm_encoder_degraded",
               select_json(workloads::gsm_encoder, 1000, 0));
}

}  // namespace
}  // namespace partita

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") partita::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
