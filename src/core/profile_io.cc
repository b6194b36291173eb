#include "core/profile_io.h"

#include "core/profile.h"

#include <iomanip>
#include <ostream>

namespace ursa::core
{

void
saveAppProfile(const AppProfile &profile, std::ostream &out)
{
    out << "ursa-profile-v1\n";
    out << std::setprecision(17);
    out << "grid " << profile.grid.size();
    for (double p : profile.grid)
        out << ' ' << p;
    out << "\nservices " << profile.services.size() << "\n";
    for (const ServiceProfile &svc : profile.services) {
        const std::size_t classes =
            svc.levels.empty() ? 0 : svc.levels.front().loadPerReplica.size();
        out << "service " << svc.serviceName << ' ' << svc.cpuPerReplica
            << ' ' << svc.bpThreshold << ' ' << svc.samples << ' '
            << svc.exploreTime << ' ' << svc.levels.size() << ' '
            << classes << "\n";
        for (const LprLevel &level : svc.levels) {
            out << "level " << level.replicas << ' '
                << level.cpuUtilization;
            for (double v : level.loadPerReplica)
                out << ' ' << v;
            out << "\n";
            for (std::size_t c = 0; c < classes; ++c) {
                out << "lat";
                if (level.latency[c].empty()) {
                    for (std::size_t g = 0; g < profile.grid.size(); ++g)
                        out << " -1";
                } else {
                    for (double v : level.latency[c])
                        out << ' ' << v;
                }
                out << "\n";
            }
        }
    }
}

} // namespace ursa::core
