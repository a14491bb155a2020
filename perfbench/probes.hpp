// Layer probes: short, warmed-up timing loops over one public call of a
// layer, run per app. Each reports the median over `reps` timed repetitions
// (after one untimed warm-up), averaged over the apps.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct ProbeResults {
  double device_setup_ms = 0.0;  ///< rt::Device construction + destruction.
  double link_ms = 0.0;          ///< jvm::Jvm::load of every class + link().
  double compile_us[3] = {0.0, 0.0, 0.0};  ///< jit::compile_method per method
                                           ///< of the compilation plan, L1..L3.
  double serialize_us = 0.0;  ///< serialize + deserialize of one argument set
                              ///< at the app's dominant scale.
  double analysis_ms = 0.0;   ///< rt::Client::deploy with the four analysis
                              ///< knobs on, minus with the paper config.
};

class Runners;

/// Run every probe over `apps` (indices into apps::registry()); the analysis
/// probe deploys the classes and client configuration of `runners`' slot 0.
ProbeResults run_probes(const std::vector<std::size_t>& apps,
                        const Runners& runners, int reps, std::uint64_t seed);

}  // namespace perfbench
