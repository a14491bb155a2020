#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "apps/app.hpp"
#include "jit/compiler.hpp"
#include "net/serializer.hpp"
#include "rt/device.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace javelin;

namespace {

/// Median of `reps` calls of `fn` after one warm-up call; `fn` returns the
/// seconds its measured part took.
double median_seconds(int reps, const std::function<double()>& fn) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(fn());
  std::sort(t.begin(), t.end());
  const std::size_t n = t.size();
  return n % 2 ? t[n / 2] : 0.5 * (t[n / 2 - 1] + t[n / 2]);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

ProbeResults run_probes(const std::vector<std::size_t>& app_ids,
                        const Runners& runners, int reps, std::uint64_t seed) {
  ProbeResults r;
  r.device_setup_ms = 1e3 * median_seconds(reps, [] {
    const auto t0 = std::chrono::steady_clock::now();
    { rt::Device dev(isa::client_machine()); }
    return seconds_since(t0);
  });

  // The client the analysis probe deploys talks to an idle server.
  net::Link net_link(radio::CommModel{}, seed);
  radio::FixedChannel channel(radio::PowerClass::kClass4);
  rt::Server idle_server;

  std::vector<double> link, compile[3], serialize, analyses;
  for (std::size_t a : app_ids) {
    const apps::App& app = apps::registry()[a];

    link.push_back(median_seconds(reps, [&app] {
      rt::Device dev(isa::client_machine());
      const auto t0 = std::chrono::steady_clock::now();
      dev.deploy(app.classes);
      return seconds_since(t0);
    }));

    rt::Device client(isa::client_machine());
    client.deploy(app.classes);
    std::vector<std::int32_t> plan{client.vm.find_method(app.cls, app.method)};
    for (std::int32_t callee : jit::collect_callees(client.vm, plan[0]))
      plan.push_back(callee);
    for (int level = 1; level <= 3; ++level) {
      jit::CompileOptions opts;
      opts.opt_level = level;
      compile[level - 1].push_back(
          median_seconds(reps, [&] {
            const auto t0 = std::chrono::steady_clock::now();
            for (std::int32_t id : plan)
              jit::compile_method(client.vm, id, opts, client.cfg.energy);
            return seconds_since(t0);
          }) /
          static_cast<double>(plan.size()));
    }

    rt::Device server(isa::server_machine());
    server.deploy(app.classes);
    Rng rng(seed);
    const double dominant = app.profile_scales[app.profile_scales.size() / 2];
    const std::vector<jvm::Value> args = app.make_args(client.vm, dominant, rng);
    serialize.push_back(median_seconds(reps, [&] {
      const std::size_t mark = server.arena.heap_mark();
      const auto t0 = std::chrono::steady_clock::now();
      for (const jvm::Value& v : args)
        net::deserialize_value(server.vm,
                               net::serialize_value(client.vm, v, true), true);
      const double s = seconds_since(t0);
      server.arena.heap_release(mark);
      return s;
    }));

    // The deploy-time analyses are what rt::Client::deploy does beyond
    // Device::deploy when the four knobs are on: the difference of the two
    // deploys on the runner's own classes and configuration.
    Cell cell;
    cell.app = a;
    const sim::ScenarioRunner& runner = runners.for_cell(cell);
    auto deploy_seconds = [&](bool knobs) {
      cell.analysis_knobs = knobs;
      const rt::ClientConfig cfg = cell_config(cell, runner.client_config);
      return median_seconds(reps, [&] {
        rt::Client c(cfg, idle_server, channel, net_link);
        const auto t0 = std::chrono::steady_clock::now();
        c.deploy(runner.profiled_classes());
        return seconds_since(t0);
      });
    };
    analyses.push_back(deploy_seconds(true) - deploy_seconds(false));
  }
  r.link_ms = 1e3 * mean(link);
  for (int l = 0; l < 3; ++l) r.compile_us[l] = 1e6 * mean(compile[l]);
  r.serialize_us = 1e6 * mean(serialize);
  r.analysis_ms = 1e3 * mean(analyses);
  return r;
}

}  // namespace perfbench
