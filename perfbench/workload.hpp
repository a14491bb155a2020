// The benchmark's three session workloads.
//
// A session is one sweep cell: a fresh rt::Server and rt::Client running N
// invocations of one app's potential method. A workload is a fixed grid of
// such cells; the seed given on the command line seeds the
// sim::ScenarioRunners, so it changes the generated inputs and channel draws
// but never the grid. A ScenarioRunner draws one input-size and fault
// sequence per (seed, situation), which every strategy of an app (and every
// offload cell of an app) would share, so one seed would swing the host work
// of a whole run. Each run therefore profiles the apps kSeedSlots times,
// under seeds derived from the run seed, and cell i runs on the runners of
// slot i % kSeedSlots.
//
//  * steady  — the Fig 7 grid: 8 apps x 3 situations x 7 strategies,
//              kSteadyExecs invocations per session, paper-default policy.
//  * cold    — Fig 6-style single invocations: 8 apps x {small, large} x
//              {R@Class4..1, I, L1, L2, L3, AL, AA}, each under the paper
//              policy and under all four deploy-time analysis knobs.
//  * offload — R and AA on the poor channel under every golden fault case x
//              resilience policy case, kOffloadExecs invocations per session.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace perfbench {

using namespace javelin;

inline constexpr int kSteadyExecs = 32;
inline constexpr int kOffloadExecs = 20;
inline constexpr std::size_t kSeedSlots = 5;

enum class WorkloadKind { kSteady, kCold, kOffload };

/// One session of a workload grid.
struct Cell {
  std::size_t app = 0;  ///< Index into apps::registry().
  rt::Strategy strategy = rt::Strategy::kRemote;
  bool single = false;  ///< run_single (cold) instead of run.
  sim::Situation situation = sim::Situation::kGoodChannelDominantSize;
  int executions = 1;
  double scale = 0.0;                                    ///< single only.
  radio::PowerClass channel = radio::PowerClass::kClass4;  ///< single only.
  std::size_t fault = 0;   ///< Index into sim::golden_fault_cases().
  std::size_t policy = 0;  ///< Index into sim::golden_policy_cases().
  bool analysis_knobs = false;  ///< All four deploy-time analysis knobs on.
  std::size_t seed_slot = 0;    ///< Which seed's runners run this cell.
  std::string label;
};

/// Outcome of one session plus the host cost of running it.
struct SessionOutcome {
  sim::StrategyResult result;
  std::uint64_t digest = 0;
  double seconds = 0.0;
  bool threw = false;
};

bool parse_workload(const std::string& name, WorkloadKind* out);
const char* workload_name(WorkloadKind w);

/// Sessions per host second at one worker, measured at the seeding commit on
/// a 4-core x86 host. `--seconds S` runs ceil(S x rate) sessions, so every
/// run of a workload does the same work whatever the host's speed.
double sessions_per_second(WorkloadKind w);

/// The workload's grid in canonical (app-major) order.
std::vector<Cell> make_grid(WorkloadKind w);

/// A fixed permutation of grid indices (independent of the run seed), so a
/// prefix of it samples every app, strategy and situation evenly.
std::vector<std::size_t> session_order(std::size_t grid_size);

/// Bit-exact digest of a StrategyResult: FNV-1a over every field, doubles
/// as hex-floats.
std::uint64_t digest_result(const sim::StrategyResult& r);
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

/// Client configuration a cell runs under, starting from `base`.
rt::ClientConfig cell_config(const Cell& c, const rt::ClientConfig& base);

/// Profiled runners for the apps a workload uses under one seed slot, plus
/// copies of them with the fault plans of the first `fault_cases` golden fault
/// cases (copies share nothing mutable).
class RunnerSet {
 public:
  /// Profiles each app in `apps` (indices into apps::registry()); fills
  /// `profile_seconds[i]` with the host seconds app i's profiling took.
  RunnerSet(const std::vector<std::size_t>& apps, std::uint64_t seed,
            std::size_t fault_cases, std::vector<double>* profile_seconds);

  std::uint64_t seed() const { return seed_; }
  /// The runner for `app` under fault case `fault`.
  const sim::ScenarioRunner& get(std::size_t app, std::size_t fault) const;

 private:
  std::uint64_t seed_;
  /// [app][fault case]; fault index 0 is the fault-free runner.
  std::vector<std::vector<std::unique_ptr<sim::ScenarioRunner>>> by_app_;
};

/// One RunnerSet per seed slot.
class Runners {
 public:
  void add(std::unique_ptr<RunnerSet> set) { sets_.push_back(std::move(set)); }
  /// The runner a cell uses (fault plan applied) and that runner's seed.
  const sim::ScenarioRunner& for_cell(const Cell& c) const;
  std::uint64_t seed_for(const Cell& c) const;

 private:
  std::vector<std::unique_ptr<RunnerSet>> sets_;
};

/// Fault cases a grid's cells use: 1 (fault-free) unless the grid has
/// offload cells.
std::size_t fault_cases(const std::vector<Cell>& grid);

/// Seed of seed slot `slot` of a run seeded with `seed` (slot 0: `seed`).
std::uint64_t slot_seed(std::uint64_t seed, std::size_t slot);

/// Per-app median over the slots of `by_slot[slot][app]`.
std::vector<double> median_by_app(
    const std::vector<std::vector<double>>& by_slot);

/// Profile every slot's runners in turn. Fills `profile_seconds[i]` (if set)
/// with the median over the slots of the host seconds app i's ScenarioRunner
/// construction took; the fault-case copies are not timed.
Runners make_runners(const std::vector<std::size_t>& apps, std::uint64_t seed,
                     std::size_t fault_cases,
                     std::vector<double>* profile_seconds);

/// Run one session through sim::ScenarioRunner::run / run_single.
SessionOutcome run_cell(const Runners& runners, const Cell& c);

/// Invocations a session counts as failed: all of them when the golden check
/// failed, the session threw or a bounds fault aborted an invocation.
int failed_invocations(const Cell& c, const SessionOutcome& o);

}  // namespace perfbench
