// Tests of the benchmark's own arithmetic and checks (benchstats.hpp).
// Run: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "benchstats.hpp"

namespace {

using perfbench::Counters;

TEST(Percentile, EmptySampleHasNone) {
  EXPECT_FALSE(perfbench::percentile({}, 0.5).has_value());
  EXPECT_FALSE(perfbench::median({}).has_value());
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  for (const double q : {0.0, 0.5, 0.9, 1.0})
    EXPECT_DOUBLE_EQ(*perfbench::percentile({7.5}, q), 7.5);
}

TEST(Percentile, EvenSampleMedianIsMidpointOfMiddlePair) {
  EXPECT_DOUBLE_EQ(*perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(*perfbench::median({1.0, 2.0}), 1.5);
}

TEST(Percentile, OddSampleMedianIsMiddleValue) {
  EXPECT_DOUBLE_EQ(*perfbench::median({9.0, 1.0, 5.0}), 5.0);
}

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  // Ranks 0..4; q=0.9 sits at rank 3.6.
  EXPECT_DOUBLE_EQ(*perfbench::percentile({10, 20, 30, 40, 50}, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(*perfbench::percentile({10, 20, 30, 40, 50}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(*perfbench::percentile({10, 20, 30, 40, 50}, 1.0), 50.0);
}

TEST(HarrellDavis, TinySamples) {
  EXPECT_FALSE(perfbench::harrellDavisMedian({}).has_value());
  EXPECT_DOUBLE_EQ(*perfbench::harrellDavisMedian({7.5}), 7.5);
  // Symmetric weights: the centre of a symmetric sample, odd or even.
  EXPECT_NEAR(*perfbench::harrellDavisMedian({3.0, 1.0, 2.0}), 2.0, 1e-12);
  EXPECT_NEAR(*perfbench::harrellDavisMedian({4.0, 1.0, 3.0, 2.0}), 2.5, 1e-12);
  EXPECT_NEAR(*perfbench::harrellDavisMedian({6.0, 6.0, 6.0, 6.0}), 6.0, 1e-12);
}

TEST(HarrellDavis, WeightsAreBetaProbabilities) {
  // n = 3: Beta(2, 2) puts 1 - I_{2/3}(2, 2) = 7/27 above 2/3.
  EXPECT_NEAR(*perfbench::harrellDavisMedian({0.0, 0.0, 1.0}), 7.0 / 27.0, 1e-12);
}

TEST(HarrellDavis, MovesSmoothlyAcrossAGap) {
  // Neighbours either side of a gap trade places: the sample median jumps
  // from one side to the other, the estimate barely moves.
  const std::vector<double> a = {1.0, 1.1, 1.2, 1.39, 1.61, 1.8, 1.9};
  const std::vector<double> b = {1.0, 1.1, 1.2, 1.61, 1.61, 1.8, 1.9};
  EXPECT_NEAR(*perfbench::median(b) - *perfbench::median(a), 0.22, 1e-12);
  EXPECT_LT(*perfbench::harrellDavisMedian(b) - *perfbench::harrellDavisMedian(a), 0.22 / 2);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(perfbench::reportableTail(0).has_value());
  EXPECT_FALSE(perfbench::reportableTail(99).has_value());
  EXPECT_DOUBLE_EQ(*perfbench::reportableTail(100), 0.9);
  EXPECT_DOUBLE_EQ(*perfbench::reportableTail(199), 0.9);
  EXPECT_DOUBLE_EQ(*perfbench::reportableTail(200), 0.95);
  EXPECT_DOUBLE_EQ(*perfbench::reportableTail(1000), 0.99);
}

TEST(Rate, ZeroDenominatorIsNullNotZero) {
  EXPECT_FALSE(perfbench::rate(0.0, 0.0).has_value());
  EXPECT_FALSE(perfbench::rate(5.0, 0.0).has_value());
  EXPECT_FALSE(perfbench::rate(NAN, 1.0).has_value());
  EXPECT_EQ(perfbench::jsonNumber(perfbench::rate(3.0, 0.0)), "null");
  EXPECT_DOUBLE_EQ(*perfbench::rate(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(*perfbench::rate(3.0, 4.0), 0.75);
}

TEST(Rate, MeanOfEmptySampleIsNull) {
  EXPECT_FALSE(perfbench::mean({}).has_value());
  EXPECT_DOUBLE_EQ(*perfbench::mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(ReferenceScale, NominalOverMedianSample) {
  // A host running the reference twice as slow as nominal halves times.
  EXPECT_DOUBLE_EQ(*perfbench::referenceScale({0.010, 0.009, 0.011}, 0.005), 0.5);
  EXPECT_DOUBLE_EQ(*perfbench::referenceScale({0.004, 0.006}, 0.005), 1.0);
  // One preempted sample does not move the median.
  EXPECT_DOUBLE_EQ(*perfbench::referenceScale({0.005, 0.005, 0.5}, 0.005), 1.0);
}

TEST(ReferenceScale, NoSamplesOrZeroTimeHasNone) {
  EXPECT_FALSE(perfbench::referenceScale({}, 0.005).has_value());
  EXPECT_FALSE(perfbench::referenceScale({0.0, 0.0}, 0.005).has_value());
}

TEST(JsonNumber, KeepsAllDigits) {
  EXPECT_EQ(perfbench::jsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(perfbench::jsonNumber(std::nullopt), "null");
  EXPECT_EQ(perfbench::jsonNumber(INFINITY), "null");
}

TEST(Counters, DeltaCountsNewlyRegisteredFromZero) {
  const Counters before = {{"a", 5}};
  const Counters after = {{"a", 8}, {"b", 2}};
  const Counters d = perfbench::delta(after, before);
  EXPECT_EQ(d.at("a"), 3u);
  EXPECT_EQ(d.at("b"), 2u);
}

TEST(Counters, MismatchIsDetected) {
  const Counters a = {{"sizing.cost_evals", 100}, {"core.cache.hits", 7}};
  EXPECT_TRUE(perfbench::counterMismatches(a, a).empty());
  Counters b = a;
  b["core.cache.hits"] = 8;
  EXPECT_EQ(perfbench::counterMismatches(a, b),
            std::vector<std::string>{"core.cache.hits"});
  Counters c = a;
  c.erase("sizing.cost_evals");
  EXPECT_EQ(perfbench::counterMismatches(a, c),
            std::vector<std::string>{"sizing.cost_evals"});
  EXPECT_EQ(perfbench::counterMismatches(c, a),
            std::vector<std::string>{"sizing.cost_evals"});
}

TEST(Digest, EqualResultsDigestEqual) {
  const auto digest = [](const std::string& topo, std::vector<double> x, double area) {
    perfbench::Digest h;
    h.add(topo).add(x).add(area);
    return h.value();
  };
  EXPECT_EQ(digest("two-stage-miller", {1.0, 2.0}, 3.0),
            digest("two-stage-miller", {1.0, 2.0}, 3.0));
  // Any change in topology, design point (down to one ulp) or area shows.
  EXPECT_NE(digest("two-stage-miller", {1.0, 2.0}, 3.0),
            digest("five-transistor-ota", {1.0, 2.0}, 3.0));
  EXPECT_NE(digest("two-stage-miller", {1.0, 2.0}, 3.0),
            digest("two-stage-miller", {1.0, std::nextafter(2.0, 3.0)}, 3.0));
  EXPECT_NE(digest("two-stage-miller", {1.0, 2.0}, 3.0),
            digest("two-stage-miller", {1.0, 2.0}, 3.5));
  // Field boundaries are part of the digest.
  EXPECT_NE(digest("ab", {}, 0.0), digest("a", {}, 0.0));
  EXPECT_NE(digest("x", {1.0}, 2.0), digest("x", {1.0, 2.0}, 2.0));
}

TEST(Inputs, SameSeedSameDraw) {
  perfbench::SplitMix a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const double x = a.uniform(2.0, 3.0);
    EXPECT_EQ(x, b.uniform(2.0, 3.0));
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
  perfbench::SplitMix a2(42);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Inputs, SeededPermutationIsAPermutation) {
  const auto p = perfbench::seededPermutation(50, 7);
  EXPECT_EQ(p, perfbench::seededPermutation(50, 7));
  EXPECT_NE(p, perfbench::seededPermutation(50, 8));
  auto sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_TRUE(perfbench::seededPermutation(0, 1).empty());
  EXPECT_EQ(perfbench::seededPermutation(1, 1), std::vector<std::size_t>{0});
}

}  // namespace
