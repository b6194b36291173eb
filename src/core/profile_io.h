/**
 * @file
 * Plain-text printing of exploration profiles, every number at 17
 * significant digits. Profiles that differ in any one field print
 * different text, so tests use the text as a byte-exact digest when
 * comparing explorations (for example across thread counts).
 */

#ifndef URSA_CORE_PROFILE_IO_H
#define URSA_CORE_PROFILE_IO_H

#include "core/profile.h"

#include <iosfwd>

namespace ursa::core
{

/**
 * Print every field of a profile (versioned, human-readable). An
 * unhandled class's empty latency row prints as -1 entries.
 */
void saveAppProfile(const AppProfile &profile, std::ostream &out);

} // namespace ursa::core

#endif // URSA_CORE_PROFILE_IO_H
