// Tests for the support utilities: diagnostics, RNG, strings, text tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "support/diagnostics.hpp"
#include "support/fault_injection.hpp"
#include "support/result.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/text_table.hpp"

namespace partita::support {
namespace {

// --- diagnostics -------------------------------------------------------------

TEST(Diagnostics, CountsBySeverity) {
  DiagnosticEngine d;
  d.note("fyi");
  d.warning("hmm");
  d.error("bad", {3, 7});
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.error_count(), 1u);
  EXPECT_EQ(d.warning_count(), 1u);
  EXPECT_EQ(d.diagnostics().size(), 3u);
}

TEST(Diagnostics, RendersLocation) {
  Diagnostic d{Severity::kError, "unexpected token", {12, 5}};
  EXPECT_EQ(d.render(), "error at 12:5: unexpected token");
  Diagnostic no_loc{Severity::kWarning, "w", {}};
  EXPECT_EQ(no_loc.render(), "warning: w");
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine d;
  d.error("x");
  d.clear();
  EXPECT_FALSE(d.has_errors());
  EXPECT_TRUE(d.diagnostics().empty());
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(r.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01Bounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, WeightedIndexRespectsZeros) {
  Rng r(9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.weighted_index({0.0, 5.0, 0.0}), 1u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// --- strings -------------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b\t"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  foo\t bar \n baz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ParseInt) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_int("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(parse_int("12x", v));
  EXPECT_FALSE(parse_int("", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.5e2", v));
  EXPECT_DOUBLE_EQ(v, 350.0);
  EXPECT_FALSE(parse_double("nope", v));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1000), "-1,000");
}

TEST(Strings, CompactDouble) {
  EXPECT_EQ(compact_double(3.0), "3");
  EXPECT_EQ(compact_double(3.5), "3.5");
}

// --- text table -----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"RG", "G"});
  t.set_alignment({Align::kRight, Align::kRight});
  t.add_row({"1", "22"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find(" RG |  G"), std::string::npos);
  EXPECT_NE(out.find("333 |  4"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, HeaderRuleMatchesWidth) {
  TextTable t({"ab"});
  t.add_row({"xyzw"});
  const auto out = t.render();
  EXPECT_NE(out.find("----"), std::string::npos);
}

// --- Result ---------------------------------------------------------------------

Result<int> parse_positive(int v) {
  if (v > 0) return v;
  DiagnosticEngine diags;
  diags.error("value must be positive");
  return Error::from("bad value", diags);
}

TEST(Result, HoldsValueOrError) {
  Result<int> good = parse_positive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.take(), 7);

  Result<int> bad = parse_positive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "bad value");
  ASSERT_EQ(bad.error().diagnostics.size(), 1u);
}

TEST(Result, RenderIncludesDiagnostics) {
  const Result<int> bad = parse_positive(0);
  const std::string text = bad.error().render();
  EXPECT_NE(text.find("bad value"), std::string::npos);
  EXPECT_NE(text.find("value must be positive"), std::string::npos);
}

TEST(Result, WorksWithMoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(42);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = r.take();
  EXPECT_EQ(*owned, 42);
}

// --- fault injection ------------------------------------------------------------

TEST(FaultInjection, DisarmedSitesNeverFire) {
  FaultInjector::instance().reset();
  EXPECT_FALSE(fault_should_trip("nothing.armed"));
  EXPECT_EQ(FaultInjector::instance().hits("nothing.armed"), 0u);
}

TEST(FaultInjection, TripsAtNthCheckpointAndStays) {
  FaultInjector::instance().reset();
  {
    ScopedFault f("unit.site", /*trip_at=*/3);
    EXPECT_FALSE(fault_should_trip("unit.site"));
    EXPECT_FALSE(fault_should_trip("unit.site"));
    EXPECT_TRUE(fault_should_trip("unit.site"));   // 3rd checkpoint fires...
    EXPECT_TRUE(fault_should_trip("unit.site"));   // ...and stays tripped
    EXPECT_EQ(FaultInjector::instance().hits("unit.site"), 4u);
    // An armed injector never fires sites it was not armed for.
    EXPECT_FALSE(fault_should_trip("unit.other"));
  }
  // ScopedFault disarms on scope exit.
  EXPECT_FALSE(fault_should_trip("unit.site"));
}

TEST(FaultInjection, RearmingResetsHitCount) {
  FaultInjector::instance().reset();
  FaultInjector::instance().arm("unit.rearm", 2);
  EXPECT_FALSE(fault_should_trip("unit.rearm"));
  FaultInjector::instance().arm("unit.rearm", 2);  // re-arm: count starts over
  EXPECT_FALSE(fault_should_trip("unit.rearm"));
  EXPECT_TRUE(fault_should_trip("unit.rearm"));
  FaultInjector::instance().reset();
  EXPECT_FALSE(fault_should_trip("unit.rearm"));
}

// --- arm_fault_spec: the one PARTITA_FAULT / --fault spelling ----------------

TEST(FaultSpec, BareSiteTripsAtFirstCheckpoint) {
  FaultInjector::instance().reset();
  const FaultSpec f = arm_fault_spec("unit.spec");
  EXPECT_EQ(f.site, "unit.spec");
  EXPECT_EQ(f.trip_at, 1u);
  EXPECT_FALSE(f.crash);
  EXPECT_TRUE(fault_should_trip("unit.spec"));
  FaultInjector::instance().reset();
}

TEST(FaultSpec, CountSuffixSetsTripPoint) {
  FaultInjector::instance().reset();
  const FaultSpec f = arm_fault_spec("unit.spec:3");
  EXPECT_EQ(f.site, "unit.spec");
  EXPECT_EQ(f.trip_at, 3u);
  EXPECT_FALSE(f.crash);
  EXPECT_FALSE(fault_should_trip("unit.spec"));
  EXPECT_FALSE(fault_should_trip("unit.spec"));
  EXPECT_TRUE(fault_should_trip("unit.spec"));
  EXPECT_TRUE(fault_should_trip("unit.spec"));  // sticky
  FaultInjector::instance().reset();
}

// Crash specs are only checked below their trip point: tripping one would
// SIGKILL the test binary.
TEST(FaultSpec, CountAndCrashSuffixArmTheBareSite) {
  FaultInjector::instance().reset();
  const FaultSpec f = arm_fault_spec("unit.spec:3:crash");
  EXPECT_EQ(f.site, "unit.spec");
  EXPECT_EQ(f.trip_at, 3u);
  EXPECT_TRUE(f.crash);
  EXPECT_FALSE(fault_should_trip("unit.spec"));
  EXPECT_FALSE(fault_should_trip("unit.spec"));
  EXPECT_EQ(FaultInjector::instance().hits("unit.spec"), 2u);
  EXPECT_EQ(FaultInjector::instance().hits("unit.spec:3"), 0u);
  FaultInjector::instance().reset();
}

TEST(FaultSpec, CrashSuffixWithoutCount) {
  FaultInjector::instance().reset();
  const FaultSpec f = arm_fault_spec("unit.spec:crash");
  EXPECT_EQ(f.site, "unit.spec");
  EXPECT_EQ(f.trip_at, 1u);
  EXPECT_TRUE(f.crash);
  FaultInjector::instance().reset();
}

}  // namespace
}  // namespace partita::support
