/** @file Unit tests for TimeSeries, WindowAggregator and WindowCounter. */

#include "stats/timeseries.h"

#include <gtest/gtest.h>

namespace
{

using ursa::stats::TimeSeries;
using ursa::stats::WindowAggregator;
using ursa::stats::WindowCounter;

TEST(TimeSeries, AppendAndRange)
{
    TimeSeries ts;
    ts.append(0, 1.0);
    ts.append(10, 2.0);
    ts.append(20, 3.0);
    const auto r = ts.range(5, 25);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_DOUBLE_EQ(r[0].value, 2.0);
    EXPECT_DOUBLE_EQ(r[1].value, 3.0);
}

TEST(TimeSeries, RejectsDecreasingTime)
{
    TimeSeries ts;
    ts.append(10, 1.0);
    EXPECT_THROW(ts.append(5, 2.0), std::logic_error);
}

TEST(TimeSeries, EqualTimestampsAllowed)
{
    TimeSeries ts;
    ts.append(10, 1.0);
    ts.append(10, 2.0);
    EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeries, TimeAverageStepFunction)
{
    TimeSeries ts;
    ts.append(0, 2.0);   // 2.0 over [0, 10)
    ts.append(10, 4.0);  // 4.0 over [10, 20)
    EXPECT_DOUBLE_EQ(ts.timeAverage(0, 20), 3.0);
    EXPECT_DOUBLE_EQ(ts.timeAverage(0, 10), 2.0);
    EXPECT_DOUBLE_EQ(ts.timeAverage(10, 20), 4.0);
    EXPECT_DOUBLE_EQ(ts.timeAverage(5, 15), 3.0);
}

TEST(TimeSeries, TimeAverageBeforeFirstPointIsZero)
{
    TimeSeries ts;
    ts.append(100, 5.0);
    EXPECT_DOUBLE_EQ(ts.timeAverage(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(ts.timeAverage(0, 200), 2.5);
}

TEST(TimeSeries, MeanAndLast)
{
    TimeSeries ts;
    EXPECT_DOUBLE_EQ(ts.last(9.0), 9.0);
    ts.append(0, 1.0);
    ts.append(1, 3.0);
    EXPECT_DOUBLE_EQ(ts.mean(0, 10), 2.0);
    EXPECT_DOUBLE_EQ(ts.last(), 3.0);
}

TEST(WindowAggregator, BucketsByWidth)
{
    WindowAggregator agg(100);
    agg.add(5, 1.0);
    agg.add(50, 2.0);
    agg.add(150, 3.0);
    ASSERT_EQ(agg.windows().size(), 2u);
    EXPECT_EQ(agg.windows()[0].start, 0);
    EXPECT_EQ(agg.windows()[0].stats.count(), 2u);
    EXPECT_EQ(agg.windows()[1].start, 100);
}

TEST(WindowAggregator, SkipsEmptyWindows)
{
    WindowAggregator agg(10);
    agg.add(5, 1.0);
    agg.add(95, 2.0);
    ASSERT_EQ(agg.windows().size(), 2u);
    EXPECT_EQ(agg.windows()[1].start, 90);
}

TEST(WindowAggregator, WindowAtLookup)
{
    WindowAggregator agg(10);
    agg.add(5, 1.0);
    agg.add(25, 2.0);
    ASSERT_NE(agg.windowAt(7), nullptr);
    EXPECT_EQ(agg.windowAt(7)->start, 0);
    EXPECT_EQ(agg.windowAt(15), nullptr);
    ASSERT_NE(agg.windowAt(29), nullptr);
    EXPECT_EQ(agg.windowAt(29)->start, 20);
}

TEST(WindowAggregator, LastWindowsBefore)
{
    WindowAggregator agg(10);
    for (int t = 0; t < 50; t += 10)
        agg.add(t, double(t));
    const auto ws = agg.lastWindowsBefore(45, 3);
    ASSERT_EQ(ws.size(), 3u);
    EXPECT_EQ(ws[0]->start, 10);
    EXPECT_EQ(ws[1]->start, 20);
    EXPECT_EQ(ws[2]->start, 30);
}

TEST(WindowAggregator, LastWindowsBeforeShortHistory)
{
    WindowAggregator agg(10);
    agg.add(0, 1.0);
    const auto ws = agg.lastWindowsBefore(100, 5);
    ASSERT_EQ(ws.size(), 1u);
    EXPECT_EQ(ws[0]->start, 0);
}

TEST(WindowAggregator, CollectMergesSamples)
{
    WindowAggregator agg(10);
    agg.add(1, 1.0);
    agg.add(11, 2.0);
    agg.add(21, 3.0);
    const auto set = agg.collect(0, 20);
    EXPECT_EQ(set.count(), 2u);
    EXPECT_DOUBLE_EQ(set.percentile(100), 2.0);
}

TEST(WindowAggregator, TimeMovingBackwardsThrows)
{
    WindowAggregator agg(10);
    agg.add(25, 1.0);
    EXPECT_THROW(agg.add(5, 1.0), std::logic_error);
}

TEST(WindowCounter, WindowsExistOnlyOnceCountedInto)
{
    WindowCounter ctr(10);
    EXPECT_TRUE(ctr.windows().empty());
    ctr.add(1);
    ctr.add(9);
    ctr.add(35); // windows 10 and 20 stay absent
    ctr.add(35);
    ctr.add(39);
    ASSERT_EQ(ctr.windows().size(), 2u);
    EXPECT_EQ(ctr.windows()[0].start, 0);
    EXPECT_EQ(ctr.windows()[0].count, 2u);
    EXPECT_EQ(ctr.windows()[1].start, 30);
    EXPECT_EQ(ctr.windows()[1].count, 3u);
}

TEST(WindowCounter, LastWindowsBeforeSkipsCurrentWindow)
{
    WindowCounter ctr(10);
    for (int t : {0, 10, 11, 30, 40, 41, 42})
        ctr.add(t);
    // At t=45 the current window (40) is still filling: it is skipped,
    // and the absent window 20 is not invented.
    const auto ws = ctr.lastWindowsBefore(45, 2);
    ASSERT_EQ(ws.size(), 2u);
    EXPECT_EQ(ws[0].start, 10);
    EXPECT_EQ(ws[0].count, 2u);
    EXPECT_EQ(ws[1].start, 30);
    EXPECT_EQ(ws[1].count, 1u);
    // Short history returns what exists, oldest first.
    const auto all = ctr.lastWindowsBefore(45, 10);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].start, 0);
    EXPECT_TRUE(ctr.lastWindowsBefore(5, 3).empty());
    EXPECT_TRUE(ctr.lastWindowsBefore(45, 0).empty());
}

TEST(WindowCounter, TimeMovingBackwardsThrows)
{
    WindowCounter ctr(10);
    ctr.add(25);
    ctr.add(20); // same window: fine
    EXPECT_THROW(ctr.add(5), std::logic_error);
}

} // namespace
