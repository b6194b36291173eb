/** @file Unit + property tests for SampleSet and EmpiricalCdf. */

#include "stats/quantile.h"
#include "stats/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

namespace
{

using ursa::stats::EmpiricalCdf;
using ursa::stats::percentileOf;
using ursa::stats::Rng;
using ursa::stats::SampleSet;

TEST(SampleSet, PercentileSmall)
{
    SampleSet s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(12.5), 1.5);
}

TEST(SampleSet, PercentileOfEmptyThrows)
{
    SampleSet s;
    EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(SampleSet, PercentileClampsOutOfRange)
{
    SampleSet s;
    s.add(2.0);
    s.add(8.0);
    EXPECT_DOUBLE_EQ(s.percentile(-5), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(150), 8.0);
}

TEST(SampleSet, UnsortedInsertOrderIrrelevant)
{
    SampleSet a, b;
    const std::vector<double> v = {9, 1, 7, 3, 5, 2, 8, 4, 6, 0};
    for (double x : v)
        a.add(x);
    std::vector<double> w = v;
    std::sort(w.begin(), w.end());
    for (double x : w)
        b.add(x);
    for (double p : {10.0, 33.0, 66.0, 90.0, 99.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p));
}

TEST(SampleSet, ReservoirKeepsCapacity)
{
    SampleSet s(100, 42);
    for (int i = 0; i < 10000; ++i)
        s.add(i);
    EXPECT_EQ(s.count(), 10000u);
    EXPECT_EQ(s.samples().size(), 100u);
}

TEST(SampleSet, ReservoirMedianUnbiased)
{
    // Reservoir median of uniform[0,1) should be near 0.5.
    Rng r(1);
    double totalErr = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
        SampleSet s(500, 100 + t);
        for (int i = 0; i < 20000; ++i)
            s.add(r.uniform());
        totalErr += s.percentile(50) - 0.5;
    }
    EXPECT_NEAR(totalErr / trials, 0.0, 0.02);
}

TEST(SampleSet, TrackThresholdExactUnderReservoir)
{
    SampleSet s(10, 7);
    s.trackThreshold(0.5);
    Rng r(2);
    int above = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const double v = r.uniform();
        if (v > 0.5)
            ++above;
        s.add(v);
    }
    EXPECT_DOUBLE_EQ(s.fractionAbove(0.5), double(above) / n);
}

TEST(SampleSet, FractionAboveNoTracking)
{
    SampleSet s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.fractionAbove(2.5), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAbove(10.0), 0.0);
}

TEST(SampleSet, MergeCombines)
{
    SampleSet a, b;
    a.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.percentile(50), 2.0);
}

// Regression: merge used to re-add the other set's *retained* samples
// through add(), dropping its unretained threshold exceedances. With a
// capacity-4 reservoir on `b`, only ~4 of its 100 exceedances survived.
TEST(SampleSet, MergePreservesThresholdCounts)
{
    SampleSet a, b(4, 11);
    a.trackThreshold(10.0);
    b.trackThreshold(10.0);
    for (int i = 0; i < 100; ++i)
        b.add(20.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.fractionAbove(10.0), 1.0);
}

// Regression: merging through add() weighted the other stream by the
// *local* observed count, so a second stream of equal size was nearly
// squeezed out of the merged reservoir. With the weighted union the
// merged reservoir represents both streams ~equally.
TEST(SampleSet, MergeReservoirsWeightedByObserved)
{
    SampleSet a(64, 3), b(64, 5);
    Rng r(17);
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        a.add(r.uniform() * 0.01); // stream near 0
    for (int i = 0; i < n; ++i)
        b.add(1.0 - r.uniform() * 0.01); // stream near 1
    a.merge(b);
    EXPECT_EQ(a.count(), 2u * n);
    EXPECT_EQ(a.samples().size(), 64u);
    // Old code: mean ~0.006 (stream b nearly absent). Fixed: ~0.5.
    EXPECT_NEAR(a.mean(), 0.5, 0.15);
}

TEST(SampleSet, MergeExactModeConcatenates)
{
    SampleSet a, b;
    for (double v : {1.0, 2.0})
        a.add(v);
    for (double v : {3.0, 4.0})
        b.add(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.samples().size(), 4u);
    EXPECT_DOUBLE_EQ(a.percentile(100), 4.0);
}

TEST(SampleSet, MergeEmptyOtherIsNoOp)
{
    SampleSet a, b;
    a.add(1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.samples().size(), 1u);
}

TEST(SampleSet, ResetClears)
{
    SampleSet s;
    s.add(1.0);
    s.reset();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
}

TEST(SampleSet, MeanOfRetained)
{
    SampleSet s;
    for (double v : {2.0, 4.0, 6.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

// Property: percentile is monotone in p.
TEST(SampleSetProperty, PercentileMonotone)
{
    Rng r(33);
    for (int trial = 0; trial < 20; ++trial) {
        SampleSet s;
        const int n = 1 + int(r.uniformInt(200));
        for (int i = 0; i < n; ++i)
            s.add(r.lognormal(10.0, 1.0));
        double prev = -1.0;
        for (double p = 0; p <= 100.0; p += 2.5) {
            const double v = s.percentile(p);
            EXPECT_GE(v, prev);
            prev = v;
        }
    }
}

// Property: percentileOf agrees with SampleSet on exact storage.
TEST(SampleSetProperty, AgreesWithVectorHelper)
{
    Rng r(44);
    for (int trial = 0; trial < 10; ++trial) {
        SampleSet s;
        std::vector<double> v;
        const int n = 5 + int(r.uniformInt(100));
        for (int i = 0; i < n; ++i) {
            const double x = r.normal(0, 5);
            s.add(x);
            v.push_back(x);
        }
        for (double p : {1.0, 25.0, 50.0, 75.0, 99.0})
            EXPECT_DOUBLE_EQ(s.percentile(p), percentileOf(v, p));
    }
}

// Selection must give the sort-based type-7 value bit for bit, so the
// comparisons below are EXPECT_EQ, not EXPECT_DOUBLE_EQ.
std::vector<double>
probePercentiles(Rng &r)
{
    std::vector<double> ps = {0.0, 0.1, 50.0, 99.0, 99.9, 100.0};
    for (int i = 0; i < 8; ++i)
        ps.push_back(r.uniform(0.0, 100.0));
    return ps;
}

void
expectSelectionMatchesSort(const SampleSet &s, Rng &r)
{
    for (double p : probePercentiles(r))
        EXPECT_EQ(s.percentile(p), percentileOf(s.samples(), p))
            << "p=" << p << " n=" << s.samples().size();
}

TEST(SampleSetSelection, MatchesSortedPercentileBitwise)
{
    Rng r(55);
    for (std::size_t n : {1u, 2u, 3u, 4096u, 5000u}) {
        SampleSet s;
        for (std::size_t i = 0; i < n; ++i)
            s.add(r.lognormal(5000.0, 1.5));
        expectSelectionMatchesSort(s, r);
    }
}

TEST(SampleSetSelection, MatchesSortedPercentileWithDuplicates)
{
    Rng r(56);
    for (std::size_t n : {2u, 3u, 17u, 1000u}) {
        SampleSet s;
        for (std::size_t i = 0; i < n; ++i)
            s.add(static_cast<double>(r.uniformInt(5)));
        expectSelectionMatchesSort(s, r);
    }
}

TEST(SampleSetSelection, MatchesSortedPercentilePastReservoirCapacity)
{
    Rng r(57);
    SampleSet s(256, 3);
    for (int i = 0; i < 5000; ++i)
        s.add(r.exponential(800.0));
    ASSERT_EQ(s.samples().size(), 256u);
    expectSelectionMatchesSort(s, r);
}

TEST(SampleSetSelection, PercentilesEqualsPerPointCalls)
{
    Rng r(58);
    SampleSet s;
    for (int i = 0; i < 777; ++i)
        s.add(r.normal(100.0, 30.0));
    const auto ps = probePercentiles(r);
    const auto all = s.percentiles(ps);
    ASSERT_EQ(all.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(all[i], s.percentile(ps[i])) << "p=" << ps[i];
    EXPECT_THROW(SampleSet().percentiles({50.0}), std::logic_error);
}

TEST(SampleSetSelection, CachedValueInvalidatedByAdd)
{
    SampleSet s;
    for (double v : {3.0, 1.0, 2.0})
        s.add(v);
    EXPECT_EQ(s.percentile(100.0), 3.0);
    s.add(10.0);
    EXPECT_EQ(s.percentile(100.0), 10.0);
    s.add(std::vector<double>{20.0, 0.5});
    EXPECT_EQ(s.percentile(100.0), 20.0);
}

TEST(SampleSetSelection, CachedValueInvalidatedByMerge)
{
    SampleSet s, other;
    s.add(1.0);
    s.add(2.0);
    other.add(50.0);
    EXPECT_EQ(s.percentile(100.0), 2.0);
    s.merge(other);
    EXPECT_EQ(s.percentile(100.0), 50.0);
}

TEST(SampleSetSelection, CachedValueInvalidatedByReset)
{
    SampleSet s;
    s.add(7.0);
    EXPECT_EQ(s.percentile(100.0), 7.0);
    s.reset();
    EXPECT_THROW(s.percentile(100.0), std::logic_error);
    s.add(4.0);
    EXPECT_EQ(s.percentile(100.0), 4.0);
}

// The bulk add is the sequence of single adds: same retained samples
// (reservoir draws included), counts and threshold tallies.
TEST(SampleSetSelection, BulkAddMatchesSingleAdds)
{
    Rng r(59);
    std::vector<double> xs(700);
    for (double &x : xs)
        x = r.exponential(100.0);
    for (std::size_t cap : {0u, 300u, 1000u}) {
        SampleSet one(cap, 9), bulk(cap, 9);
        one.trackThreshold(150.0);
        bulk.trackThreshold(150.0);
        SampleSet plainOne(cap, 9), plainBulk(cap, 9);
        for (double x : xs) {
            one.add(x);
            plainOne.add(x);
        }
        bulk.add(xs);
        plainBulk.add(std::span<const double>(xs).first(200));
        plainBulk.add(std::span<const double>(xs).subspan(200));
        EXPECT_EQ(bulk.samples(), one.samples()) << "cap " << cap;
        EXPECT_EQ(bulk.count(), one.count());
        EXPECT_EQ(bulk.fractionAbove(150.0), one.fractionAbove(150.0));
        EXPECT_EQ(plainBulk.samples(), plainOne.samples()) << "cap " << cap;
        EXPECT_EQ(plainBulk.count(), plainOne.count());
    }
}

TEST(EmpiricalCdf, BasicSteps)
{
    EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInverse)
{
    EmpiricalCdf cdf({10.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 30.0);
}

TEST(EmpiricalCdf, CurveSpansRangeAndIsMonotone)
{
    Rng r(55);
    std::vector<double> v;
    for (int i = 0; i < 500; ++i)
        v.push_back(r.exponential(2.0));
    EmpiricalCdf cdf(v);
    const auto curve = cdf.curve(50);
    ASSERT_EQ(curve.size(), 50u);
    double prev = -1.0;
    for (const auto &[x, y] : curve) {
        EXPECT_GE(y, prev);
        prev = y;
    }
    EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

} // namespace
