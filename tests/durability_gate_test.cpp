// Unit tests for bench_all's durability gate (bench/durability_gate.hpp): a
// pure function of the per-round latency samples, so its flake resistance
// and its power to catch a real journal slowdown are checked without timing
// anything.
#include <gtest/gtest.h>

#include <vector>

#include "durability_gate.hpp"

namespace partita::bench {
namespace {

/// 24 rounds of plain latencies around 20 ms with +-25% request jitter, and
/// a journaled leg that pays a steady 0.5 ms plus its own jitter pattern.
void healthy_rounds(std::vector<double>& plain, std::vector<double>& journaled) {
  plain.clear();
  journaled.clear();
  for (int i = 0; i < 24; ++i) {
    plain.push_back(20.0 * (1.0 + 0.25 * ((i * 7) % 11 - 5) / 5.0));
    journaled.push_back(0.5 + 20.0 * (1.0 + 0.25 * ((i * 5) % 11 - 5) / 5.0));
  }
}

TEST(DurabilityGate, HealthyRoundsPass) {
  std::vector<double> plain, journaled;
  healthy_rounds(plain, journaled);
  const DurabilityGate g = durability_gate(plain, journaled);
  EXPECT_FALSE(g.failed());
  EXPECT_NEAR(g.bound_ms, 0.10 * g.plain_p50_ms + 2.0, 1e-12);
}

TEST(DurabilityGate, OneSlowJournaledRequestPasses) {
  std::vector<double> plain, journaled;
  healthy_rounds(plain, journaled);
  journaled[17] *= 3.0;  // the tail sample a p99-of-24 would have been decided by
  EXPECT_GT(percentile_ms(journaled, 99), 1.10 * percentile_ms(plain, 99) + 2.0);
  EXPECT_FALSE(durability_gate(plain, journaled).failed());
}

TEST(DurabilityGate, OneSlowPlainRequestPasses) {
  std::vector<double> plain, journaled;
  healthy_rounds(plain, journaled);
  plain[5] *= 3.0;
  EXPECT_FALSE(durability_gate(plain, journaled).failed());
}

TEST(DurabilityGate, UniformJournalSlowdownFails) {
  std::vector<double> plain, journaled;
  healthy_rounds(plain, journaled);
  for (std::size_t i = 0; i < plain.size(); ++i) journaled[i] = 1.15 * plain[i] + 3.0;
  const DurabilityGate g = durability_gate(plain, journaled);
  EXPECT_TRUE(g.paired_failed);
  EXPECT_TRUE(g.p50_failed);
  EXPECT_TRUE(g.failed());
}

TEST(DurabilityGate, PercentileIsNearestRank) {
  EXPECT_EQ(percentile_ms({}, 50), 0.0);
  EXPECT_EQ(percentile_ms({3.0, 1.0, 2.0, 4.0}, 50), 3.0);
  EXPECT_EQ(percentile_ms({3.0, 1.0, 2.0, 4.0}, 99), 4.0);
}

}  // namespace
}  // namespace partita::bench
