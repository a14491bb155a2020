#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "sim/goldens.hpp"
#include "support/rng.hpp"

namespace perfbench {

bool parse_workload(const std::string& name, WorkloadKind* out) {
  for (WorkloadKind w :
       {WorkloadKind::kSteady, WorkloadKind::kCold, WorkloadKind::kOffload}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kSteady: return "steady";
    case WorkloadKind::kCold: return "cold";
    case WorkloadKind::kOffload: return "offload";
  }
  return "?";
}

double sessions_per_second(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kSteady: return 6.0;
    case WorkloadKind::kCold: return 12.0;
    case WorkloadKind::kOffload: return 7.5;
  }
  return 1.0;
}

std::vector<Cell> make_grid(WorkloadKind w) {
  const auto& registry = apps::registry();
  std::vector<Cell> grid;
  for (std::size_t a = 0; a < registry.size(); ++a) {
    const apps::App& app = registry[a];
    switch (w) {
      case WorkloadKind::kSteady:
        for (sim::Situation s :
             {sim::Situation::kGoodChannelDominantSize,
              sim::Situation::kPoorChannelDominantSize,
              sim::Situation::kUniform}) {
          for (rt::Strategy st : rt::kAllStrategies) {
            Cell c;
            c.app = a;
            c.strategy = st;
            c.situation = s;
            c.executions = kSteadyExecs;
            c.label = app.name + "/" + sim::situation_tag(s) + "/" +
                      rt::strategy_name(st);
            grid.push_back(c);
          }
        }
        break;
      case WorkloadKind::kCold:
        for (bool knobs : {false, true}) {
          for (bool large : {false, true}) {
            // R under every channel class, then the local and adaptive
            // strategies under the best channel (as Fig 6 does).
            std::vector<std::pair<rt::Strategy, radio::PowerClass>> variants;
            for (radio::PowerClass pc :
                 {radio::PowerClass::kClass4, radio::PowerClass::kClass3,
                  radio::PowerClass::kClass2, radio::PowerClass::kClass1})
              variants.emplace_back(rt::Strategy::kRemote, pc);
            for (rt::Strategy st : rt::kAllStrategies)
              if (st != rt::Strategy::kRemote)
                variants.emplace_back(st, radio::PowerClass::kClass4);
            for (const auto& [st, pc] : variants) {
              Cell c;
              c.app = a;
              c.strategy = st;
              c.single = true;
              c.scale = large ? app.large_scale : app.small_scale;
              c.channel = pc;
              c.analysis_knobs = knobs;
              c.label = app.name + "/" + (large ? "large" : "small") + "/" +
                        rt::strategy_name(st) + "@" +
                        radio::power_class_name(pc) +
                        (knobs ? "/knobs" : "/paper");
              grid.push_back(c);
            }
          }
        }
        break;
      case WorkloadKind::kOffload: {
        const auto& faults = sim::golden_fault_cases();
        const auto& policies = sim::golden_policy_cases();
        for (std::size_t f = 0; f < faults.size(); ++f) {
          for (std::size_t p = 0; p < policies.size(); ++p) {
            for (rt::Strategy st :
                 {rt::Strategy::kRemote, rt::Strategy::kAdaptiveAdaptive}) {
              Cell c;
              c.app = a;
              c.strategy = st;
              c.situation = sim::Situation::kPoorChannelDominantSize;
              c.executions = kOffloadExecs;
              c.fault = f;
              c.policy = p;
              c.label = app.name + "/" + faults[f].label + "/" +
                        policies[p].label + "/" + rt::strategy_name(st);
              grid.push_back(c);
            }
          }
        }
        break;
      }
    }
  }
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i].seed_slot = i % kSeedSlots;
  return grid;
}

std::vector<std::size_t> session_order(std::size_t grid_size) {
  std::vector<std::size_t> order(grid_size);
  for (std::size_t i = 0; i < grid_size; ++i) order[i] = i;
  Rng rng(0x5e55104dULL);
  for (std::size_t i = grid_size; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest_result(const sim::StrategyResult& r) {
  std::string s;
  char buf[64];
  auto f = [&](double d) {
    std::snprintf(buf, sizeof buf, "%a,", d);
    s += buf;
  };
  auto n = [&](long long v) {
    std::snprintf(buf, sizeof buf, "%lld,", v);
    s += buf;
  };
  f(r.total_energy_j);
  f(r.server_j);
  f(r.total_seconds);
  f(r.computation_j);
  f(r.communication_j);
  f(r.idle_j);
  f(r.dram_j);
  f(r.wasted_retry_j);
  for (const auto& [mode, count] : r.mode_counts) {
    n(static_cast<int>(mode));
    n(count);
  }
  s += ';';
  n(r.compiles);
  n(r.remote_compiles);
  n(r.fallbacks);
  n(r.executions);
  n(r.all_correct ? 1 : 0);
  n(r.retries);
  n(r.remote_failures);
  for (int c : r.failures_by_class) n(c);
  n(r.breaker_opened);
  n(r.breaker_reclosed);
  n(r.bounds_faults);
  return fnv1a(s);
}

rt::ClientConfig cell_config(const Cell& c, const rt::ClientConfig& base) {
  rt::ClientConfig cfg = base;
  cfg.resilience = sim::golden_policy_cases()[c.policy].policy;
  if (c.analysis_knobs) {
    cfg.decision.static_seed = true;
    cfg.decision.range_bce = true;
    cfg.decision.wcec_seed = true;
    cfg.decision.interprocedural_bce = true;
  }
  return cfg;
}

RunnerSet::RunnerSet(const std::vector<std::size_t>& apps, std::uint64_t seed,
                     std::size_t fault_cases,
                     std::vector<double>* profile_seconds)
    : seed_(seed), by_app_(apps::registry().size()) {
  const auto& faults = sim::golden_fault_cases();
  for (std::size_t a : apps) {
    const auto t0 = std::chrono::steady_clock::now();
    auto base = std::make_unique<sim::ScenarioRunner>(apps::registry()[a], seed);
    (*profile_seconds)[a] = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    auto& row = by_app_[a];
    row.push_back(std::move(base));
    for (std::size_t f = 1; f < fault_cases; ++f) {
      row.push_back(std::make_unique<sim::ScenarioRunner>(*row.front()));
      row.back()->fault_plan = faults.at(f).plan;
    }
  }
}

const sim::ScenarioRunner& RunnerSet::get(std::size_t app,
                                          std::size_t fault) const {
  return *by_app_.at(app).at(fault);
}

const sim::ScenarioRunner& Runners::for_cell(const Cell& c) const {
  return sets_.at(c.seed_slot)->get(c.app, c.fault);
}

std::uint64_t Runners::seed_for(const Cell& c) const {
  return sets_.at(c.seed_slot)->seed();
}

std::size_t fault_cases(const std::vector<Cell>& grid) {
  std::size_t n = 1;
  for (const Cell& c : grid) n = std::max(n, c.fault + 1);
  return n;
}

std::uint64_t slot_seed(std::uint64_t seed, std::size_t slot) {
  return seed + slot * 0x9e3779b97f4a7c15ULL;
}

std::vector<double> median_by_app(
    const std::vector<std::vector<double>>& by_slot) {
  std::vector<double> out;
  for (std::size_t a = 0; !by_slot.empty() && a < by_slot[0].size(); ++a) {
    std::vector<double> v;
    for (const std::vector<double>& slot : by_slot) v.push_back(slot[a]);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    out.push_back(n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
  }
  return out;
}

Runners make_runners(const std::vector<std::size_t>& apps, std::uint64_t seed,
                     std::size_t fault_cases,
                     std::vector<double>* profile_seconds) {
  Runners runners;
  std::vector<std::vector<double>> by_slot(
      kSeedSlots, std::vector<double>(apps::registry().size(), 0.0));
  for (std::size_t k = 0; k < kSeedSlots; ++k)
    runners.add(std::make_unique<RunnerSet>(apps, slot_seed(seed, k),
                                            fault_cases, &by_slot[k]));
  if (profile_seconds) *profile_seconds = median_by_app(by_slot);
  return runners;
}

SessionOutcome run_cell(const Runners& runners, const Cell& c) {
  const sim::ScenarioRunner& runner = runners.for_cell(c);
  const rt::ClientConfig cfg = cell_config(c, runner.client_config);
  SessionOutcome o;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    o.result = c.single ? runner.run_single(c.strategy, c.scale, c.channel,
                                            /*verify=*/true, &cfg)
                        : runner.run(c.strategy, c.situation, c.executions,
                                     /*verify=*/true, &cfg);
    o.digest = digest_result(o.result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: session %s threw: %s\n", c.label.c_str(),
                 e.what());
    o.threw = true;
  }
  o.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return o;
}

int failed_invocations(const Cell& c, const SessionOutcome& o) {
  const int n = c.single ? 1 : c.executions;
  if (o.threw || !o.result.all_correct) return n;
  return std::min(n, o.result.bounds_faults);
}

}  // namespace perfbench
