/**
 * @file Tests of profile printing: the text is a byte-exact digest,
 * so a change to any single field must change it.
 */

#include "core/profile_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace
{

using namespace ursa::core;

AppProfile
sampleProfile()
{
    AppProfile prof;
    prof.grid = {90.0, 99.0, 99.9};
    ServiceProfile a;
    a.serviceName = "alpha";
    a.cpuPerReplica = 2.0;
    a.bpThreshold = 0.55;
    a.samples = 40;
    a.exploreTime = 123456789;
    LprLevel l1;
    l1.replicas = 4;
    l1.cpuUtilization = 0.31;
    l1.loadPerReplica = {12.5, 0.0};
    l1.latency = {{100.0, 220.0, 480.0}, {}};
    a.levels.push_back(l1);
    LprLevel l2 = l1;
    l2.replicas = 3;
    l2.cpuUtilization = 0.42;
    l2.loadPerReplica = {16.6, 0.0};
    l2.latency = {{140.0, 300.0, 650.0}, {}};
    a.levels.push_back(l2);
    prof.services.push_back(a);

    ServiceProfile b;
    b.serviceName = "beta";
    b.cpuPerReplica = 1.0;
    b.bpThreshold = 1.0;
    b.samples = 0;
    prof.services.push_back(b); // unexplored service, no levels
    return prof;
}

std::string
printed(const AppProfile &profile)
{
    std::ostringstream out;
    saveAppProfile(profile, out);
    return out.str();
}

/** The next double above `v`: a change only 17 digits can show. */
void
bump(double &v)
{
    v = std::nextafter(v, HUGE_VAL);
}

TEST(ProfileIo, AnySingleFieldChangeChangesTheText)
{
    const std::string base = printed(sampleProfile());
    EXPECT_EQ(printed(sampleProfile()), base);

    const std::vector<std::pair<std::string, std::function<void(AppProfile &)>>>
        edits = {
            {"grid point", [](AppProfile &p) { bump(p.grid[1]); }},
            {"grid size", [](AppProfile &p) { p.grid.push_back(99.99); }},
            {"service count",
             [](AppProfile &p) { p.services.pop_back(); }},
            {"name",
             [](AppProfile &p) { p.services[0].serviceName = "alphb"; }},
            {"cpu per replica",
             [](AppProfile &p) { bump(p.services[0].cpuPerReplica); }},
            {"bp threshold",
             [](AppProfile &p) { bump(p.services[0].bpThreshold); }},
            {"samples", [](AppProfile &p) { ++p.services[1].samples; }},
            {"explore time",
             [](AppProfile &p) { ++p.services[0].exploreTime; }},
            {"level count",
             [](AppProfile &p) { p.services[0].levels.pop_back(); }},
            {"level replicas",
             [](AppProfile &p) { ++p.services[0].levels[1].replicas; }},
            {"cpu utilization",
             [](AppProfile &p) {
                 bump(p.services[0].levels[0].cpuUtilization);
             }},
            {"load per replica",
             [](AppProfile &p) {
                 bump(p.services[0].levels[1].loadPerReplica[0]);
             }},
            {"unhandled class load",
             [](AppProfile &p) {
                 bump(p.services[0].levels[0].loadPerReplica[1]);
             }},
            {"latency",
             [](AppProfile &p) {
                 bump(p.services[0].levels[1].latency[0][2]);
             }},
            {"unhandled class latency",
             [](AppProfile &p) {
                 p.services[0].levels[0].latency[1] = {1.0, 2.0, 3.0};
             }},
        };
    for (const auto &[field, edit] : edits) {
        AppProfile changed = sampleProfile();
        edit(changed);
        EXPECT_NE(printed(changed), base) << field;
    }
}

} // namespace
