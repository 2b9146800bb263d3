/**
 * @file
 * The evaluation suite: synthetic stand-ins for the 11 SPEC-int
 * benchmarks the paper reports (Figure 6 x-axis), plus the alternate
 * inputs used in Figure 2 (perlbench diffmail/splitmail, astar
 * rivers/biglakes). Parameters are chosen to reproduce each
 * benchmark's ORAM pressure class against a 1 MB LLC; spec_suite.cc
 * comments each profile's target LLC-miss interval.
 */

#ifndef TCORAM_WORKLOAD_SPEC_SUITE_HH
#define TCORAM_WORKLOAD_SPEC_SUITE_HH

#include <string>
#include <vector>

#include "workload/profile.hh"

namespace tcoram::workload {

/** Profile for one named benchmark (fatal on unknown name). */
Profile specProfile(const std::string &name);

/** The 11 Figure-6 benchmark names, in the paper's order. */
std::vector<std::string> specSuiteNames();

/** Alternate-input profiles for Figure 2. */
Profile perlbenchDiffmail();
Profile perlbenchSplitmail();
Profile astarRivers();
Profile astarBigLakes();

} // namespace tcoram::workload

#endif // TCORAM_WORKLOAD_SPEC_SUITE_HH
