// perfbench — runs one benchmark workload and prints one JSON line.
//
//   perfbench --workload steady|cold|offload [--seed N] [--seconds S]
//                    [--trace 0|1] [--spans PATH] [--smoke] [--record]
//
// --trace 0 (end-to-end): set up the workload's runners once per seed slot
// (workload.hpp; setup_s sums each app's median over the slots), run
// ceil(S x sessions_per_second) sessions at one worker, then the first
// 4 x J of them again on a sim::SweepEngine with J workers (J = all cores).
// Every session's StrategyResult digest must agree between the two.
// --trace 1 (per-layer): layer probes, then a fixed share of the sessions run
// untraced and again as a traced replay (replay.hpp) whose digests must match.
// --record runs the whole grid at one worker and at J workers and prints the
// per-cell digests that perfbench/reference.json pins. --smoke shrinks any
// mode to three sessions of the app fe.
//
// The last stdout line is a JSON object: correct, attempted, failed, metrics
// and the digests of the cells that ran (keyed by grid index), which
// perfbench/run.py checks against the committed reference.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "replay.hpp"
#include "sim/sweep.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

struct Options {
  WorkloadKind workload = WorkloadKind::kSteady;
  std::uint64_t seed = sim::kDefaultScenarioSeed;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  bool record = false;
  int jobs = 1;  ///< Workers of the determinism check: all cores.
  std::string spans_path;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "steady|cold|offload [--seed N] [--seconds S] [--trace 0|1] "
               "[--spans PATH] [--smoke] [--record]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      if (!parse_workload(value(), &o.workload)) usage("unknown workload");
      have_workload = true;
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) usage("--seed takes a non-negative integer");
    } else if (a == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(o.seconds > 0.0 && o.seconds <= 3600.0))
        usage("--seconds takes a number in (0, 3600]");
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--spans") {
      o.spans_path = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--record") {
      o.record = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  const unsigned hw = std::thread::hardware_concurrency();
  o.jobs = hw > 0 ? static_cast<int>(hw) : 1;
  return o;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Usage {
  double user_s = 0.0, sys_s = 0.0, max_rss_mb = 0.0;
  long minor_faults = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  u.minor_faults = ru.ru_minflt;
  return u;
}

/// Collects the run's verdict, metrics and per-cell digests, and prints them
/// as the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  /// Record a session; a digest that disagrees with an earlier run of the
  /// same cell makes the run incorrect.
  void session(std::size_t cell_index, const Cell& c, const SessionOutcome& o) {
    attempted_ += c.single ? 1 : c.executions;
    failed_ += failed_invocations(c, o);
    if (o.threw) return;
    const auto [it, inserted] = digests_.emplace(cell_index, o.digest);
    if (!inserted && it->second != o.digest) {
      std::fprintf(stderr,
                   "perfbench: cell %zu (%s) digest %s differs from an "
                   "earlier run's %s\n",
                   cell_index, c.label.c_str(), hex64(o.digest).c_str(),
                   hex64(it->second).c_str());
      mismatch_ = true;
    }
  }
  void fail(const char* why) {
    std::fprintf(stderr, "perfbench: %s\n", why);
    mismatch_ = true;
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::map<std::size_t, std::uint64_t>& digests() const {
    return digests_;
  }

  void print(const std::string& extra = "") const {
    std::string s = "{\"correct\": ";
    s += (!mismatch_ && failed_ == 0 && attempted_ > 0) ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].second.first);
      s += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    s += "}, \"cells\": {";
    bool first = true;
    for (const auto& [idx, d] : digests_) {
      s += (first ? "\"" : ", \"") + std::to_string(idx) + "\": \"" +
           hex64(d) + "\"";
      first = false;
    }
    s += "}" + extra + "}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics_;
  std::map<std::size_t, std::uint64_t> digests_;
  long attempted_ = 0;
  long failed_ = 0;
  bool mismatch_ = false;
};

/// Run the `order` sessions on a SweepEngine of `jobs` workers; the result
/// is indexed like `order`.
std::vector<SessionOutcome> run_on_engine(int jobs, const Runners& runners,
                                          const std::vector<Cell>& grid,
                                          const std::vector<std::size_t>& order) {
  sim::SweepEngine engine(jobs);
  return engine.map<SessionOutcome>(order.size(), [&](std::size_t i) {
    return run_cell(runners, grid[order[i]]);
  });
}

std::vector<std::size_t> apps_of(const std::vector<Cell>& grid,
                                 const std::vector<std::size_t>& order) {
  std::vector<std::size_t> apps;
  for (std::size_t i : order)
    if (std::find(apps.begin(), apps.end(), grid[i].app) == apps.end())
      apps.push_back(grid[i].app);
  std::sort(apps.begin(), apps.end());
  return apps;
}

int run_record(const Options& opt, const std::vector<Cell>& grid,
               const std::vector<std::size_t>& order) {
  Report report;
  const Runners runners = make_runners(apps_of(grid, order), opt.seed,
                                       fault_cases(grid), nullptr);
  const std::vector<SessionOutcome> serial =
      run_on_engine(1, runners, grid, order);
  const std::vector<SessionOutcome> parallel =
      run_on_engine(opt.jobs, runners, grid, order);
  for (std::size_t i = 0; i < order.size(); ++i) {
    report.session(order[i], grid[order[i]], serial[i]);
    report.session(order[i], grid[order[i]], parallel[i]);
  }
  std::string cat;
  for (const auto& [idx, d] : report.digests()) cat += hex64(d);
  report.print(", \"digest\": \"" + hex64(fnv1a(cat)) + "\"");
  return 0;
}

int run_end_to_end(const Options& opt, const std::vector<Cell>& grid,
                   const std::vector<std::size_t>& order) {
  Report report;
  const std::vector<std::size_t> apps = apps_of(grid, order);

  const std::size_t n_sessions =
      opt.smoke ? order.size()
                : std::max<std::size_t>(
                      100, static_cast<std::size_t>(std::ceil(
                               opt.seconds *
                               sessions_per_second(opt.workload))));
  std::vector<std::size_t> sessions(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i)
    sessions[i] = order[i % order.size()];

  // Slot by slot: set up the slot's runners (the ScenarioRunner
  // constructions, i.e. deploy-time profiling, of every app the workload
  // uses), then run the slot's sessions at one worker, timed each. setup_s
  // sums each app's median set-up over the slots; the set-ups are spread
  // over the run so that a slow stretch of the host moves one sample of
  // each app, not all of them.
  Runners runners;
  std::vector<std::vector<double>> profile_s(
      kSeedSlots, std::vector<double>(apps::registry().size(), 0.0));
  std::vector<double> session_ms;
  double serial_s = 0.0;
  long invocations = 0;
  const Usage u0 = usage_now();
  for (std::size_t k = 0; k < kSeedSlots; ++k) {
    runners.add(std::make_unique<RunnerSet>(apps, slot_seed(opt.seed, k),
                                            fault_cases(grid), &profile_s[k]));
    for (std::size_t idx : sessions) {
      if (grid[idx].seed_slot != k) continue;
      const SessionOutcome o = run_cell(runners, grid[idx]);
      report.session(idx, grid[idx], o);
      session_ms.push_back(1e3 * o.seconds);
      serial_s += o.seconds;
      invocations += o.result.executions;
    }
  }
  const Usage u1 = usage_now();
  double setup_s = 0.0;
  for (double s : median_by_app(profile_s)) setup_s += s;

  // Determinism check: the first sessions again on a SweepEngine of all
  // workers (untimed); their digests must match the serial ones.
  const std::size_t n_check =
      std::min(sessions.size(), 4 * static_cast<std::size_t>(opt.jobs));
  const std::vector<std::size_t> check(
      sessions.begin(), sessions.begin() + static_cast<std::ptrdiff_t>(n_check));
  const std::vector<SessionOutcome> parallel =
      run_on_engine(opt.jobs, runners, grid, check);
  for (std::size_t i = 0; i < check.size(); ++i)
    report.session(check[i], grid[check[i]], parallel[i]);

  report.metric("invocations_per_s",
                static_cast<double>(invocations) / serial_s, "1/s");
  report.metric("session_ms_p50", quantile(session_ms, 0.5), "ms");
  report.metric("session_ms_p90", quantile(session_ms, 0.9), "ms");
  report.metric("setup_s", setup_s, "s");
  // Peak RSS of the one-worker workload (read before the determinism check).
  report.metric("peak_rss_mb", u1.max_rss_mb, "MB");
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu sessions, %ld invocations in "
               "%.2f s at 1 worker (with set-ups: user %.2f s, sys %.2f s; %zu "
               "rerun at %d workers); failed_share %g\n",
               workload_name(opt.workload),
               static_cast<unsigned long long>(opt.seed), n_sessions,
               invocations, serial_s, u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
               check.size(), opt.jobs,
               report.attempted() > 0
                   ? static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted())
                   : 0.0);
  report.print();
  return 0;
}

int run_traced(const Options& opt, const std::vector<Cell>& grid,
               const std::vector<std::size_t>& order) {
  Report report;
  const std::vector<std::size_t> apps = apps_of(grid, order);
  std::vector<double> profile_s;
  const Runners runners =
      make_runners(apps, opt.seed, fault_cases(grid), &profile_s);

  const ProbeResults probes =
      run_probes(apps, runners, opt.smoke ? 1 : 5, opt.seed);

  const std::size_t n_sessions =
      opt.smoke ? std::min<std::size_t>(2, order.size())
                : static_cast<std::size_t>(std::ceil(
                      0.5 * opt.seconds * sessions_per_second(opt.workload)));

  // Each session runs untraced through ScenarioRunner (bracketed by
  // getrusage for the memory-system figures), then as a traced replay. The
  // two alternate so host-speed drift does not bias obs.trace_overhead.
  SpanLog log;
  std::uint64_t counters[obs::kNumCounters] = {};
  ReplayStats stats;
  sim::StrategyResult totals;
  double untraced_s = 0.0, traced_s = 0.0, sys_s = 0.0;
  long minor_faults = 0;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    const std::size_t idx = order[i % order.size()];
    const Usage u0 = usage_now();
    const SessionOutcome plain = run_cell(runners, grid[idx]);
    const Usage u1 = usage_now();
    untraced_s += plain.seconds;
    sys_s += u1.sys_s - u0.sys_s;
    minor_faults += u1.minor_faults - u0.minor_faults;
    report.session(idx, grid[idx], plain);

    obs::TraceBuffer trace(grid[idx].label);
    const SessionOutcome o = replay_cell(
        runners, grid[idx], static_cast<std::uint32_t>(i), log, trace, &stats);
    traced_s += o.seconds;
    report.session(idx, grid[idx], o);
    if (!o.threw && o.digest != plain.digest)
      report.fail("traced replay digest differs from ScenarioRunner's");
    for (std::size_t k = 0; k < obs::kNumCounters; ++k)
      counters[k] += trace.counter(static_cast<obs::Counter>(k));
    totals.total_energy_j += o.result.total_energy_j;
    totals.remote_failures += o.result.remote_failures;
    totals.retries += o.result.retries;
  }
  if (!opt.spans_path.empty() && !log.write_tsv(opt.spans_path))
    report.fail("cannot write the span file");

  // Span aggregates: mean duration / self time per span name.
  const std::vector<std::int64_t> self = log.self_ns();
  std::map<std::string, std::pair<double, long>> total_ns, self_total_ns;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    const std::string& name = log.names()[static_cast<std::size_t>(s.name)];
    auto& t = total_ns[name];
    t.first += static_cast<double>(s.end_ns - s.start_ns);
    ++t.second;
    auto& st = self_total_ns[name];
    st.first += static_cast<double>(self[i]);
    ++st.second;
  }
  auto sum_ns = [&](const char* name) { return total_ns[name].first; };
  auto mean_ns = [](const std::pair<double, long>& p) {
    return p.second ? p.first / static_cast<double>(p.second) : 0.0;
  };
  const double session_ns = sum_ns(kSpanSession);
  auto share = [&](double ns) { return session_ns > 0 ? ns / session_ns : 0.0; };
  auto count = [&](obs::Counter c) {
    return static_cast<double>(counters[static_cast<std::size_t>(c)]);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double n = static_cast<double>(n_sessions);

  report.metric("mem.device_setup_ms", probes.device_setup_ms, "ms");
  report.metric("mem.minor_faults_per_session",
                static_cast<double>(minor_faults) / n, "count");
  report.metric("mem.sys_s", sys_s, "s");
  report.metric("rt.server_setup_ms", 1e-6 * mean_ns(total_ns[kSpanServerSetup]),
                "ms");
  report.metric("rt.client_setup_ms", 1e-6 * mean_ns(total_ns[kSpanClientSetup]),
                "ms");
  report.metric("rt.teardown_ms", 1e-6 * mean_ns(total_ns[kSpanTeardown]), "ms");
  report.metric("rt.invoke_us.interp",
                1e-3 * mean_ns(self_total_ns[kSpanInvokeInterp]), "us");
  report.metric("rt.invoke_us.native",
                1e-3 * mean_ns(self_total_ns[kSpanInvokeNative]), "us");
  report.metric("rt.invoke_us.compile",
                1e-3 * mean_ns(self_total_ns[kSpanInvokeCompile]), "us");
  report.metric("rt.invoke_us.remote",
                1e-3 * mean_ns(self_total_ns[kSpanInvokeRemote]), "us");
  report.metric("rt.setup_share",
                share(sum_ns(kSpanServerSetup) + sum_ns(kSpanLinkSetup) +
                      sum_ns(kSpanClientSetup) + sum_ns(kSpanTeardown)),
                "fraction");
  report.metric("rt.run_share",
                share(sum_ns(kSpanInvokeInterp) + sum_ns(kSpanInvokeNative) +
                      sum_ns(kSpanInvokeCompile) + sum_ns(kSpanInvokeRemote)),
                "fraction");
  report.metric("rt.remote_share", share(sum_ns(kSpanInvokeRemote)), "fraction");
  report.metric("jvm.interp_runs",
                count(obs::Counter::kInterpRunsDecoded) +
                    count(obs::Counter::kInterpRunsUndecoded) +
                    count(obs::Counter::kInterpRunsBaseline),
                "count");
  report.metric("jvm.link_ms", probes.link_ms, "ms");
  report.metric("isa.native_calls", count(obs::Counter::kEngineNativeCalls),
                "count");
  report.metric("jit.compile_us.L1", probes.compile_us[0], "us");
  report.metric("jit.compile_us.L2", probes.compile_us[1], "us");
  report.metric("jit.compile_us.L3", probes.compile_us[2], "us");
  report.metric("jit.compiles", count(obs::Counter::kJitCompiles), "count");
  report.metric("jit.ir_shrink",
                ratio(count(obs::Counter::kJitIrInstrsOut),
                      count(obs::Counter::kJitIrInstrsIn)),
                "ratio");
  report.metric("net.serialize_us", probes.serialize_us, "us");
  report.metric("net.tx_bytes", count(obs::Counter::kRadioTxBytes), "bytes");
  report.metric("net.rx_bytes", count(obs::Counter::kRadioRxBytes), "bytes");
  report.metric("net.remote_ok_ratio",
                stats.remote_attempts > 0
                    ? ratio(stats.remote_attempts - totals.remote_failures,
                            stats.remote_attempts)
                    : 1.0,
                "ratio");
  report.metric("analysis.deploy_ms", probes.analysis_ms, "ms");
  report.metric("obs.trace_overhead", ratio(traced_s, untraced_s), "ratio");
  report.metric("sim.energy_j", totals.total_energy_j, "J");
  report.metric("sim.icache_hit_rate",
                ratio(static_cast<double>(stats.icache_hits),
                      static_cast<double>(stats.icache_hits + stats.icache_misses)),
                "fraction");
  report.metric("sim.dcache_hit_rate",
                ratio(static_cast<double>(stats.dcache_hits),
                      static_cast<double>(stats.dcache_hits + stats.dcache_misses)),
                "fraction");
  report.metric("sim.remote_failures", totals.remote_failures, "count");
  report.metric("sim.retries", totals.retries, "count");
  for (std::size_t a = 0; a < apps::registry().size(); ++a)
    report.metric("sim.profile_s." + apps::registry()[a].name, profile_s[a], "s");
  std::fprintf(stderr,
               "perfbench: %s seed %llu traced: %zu sessions, %.2f s untraced, "
               "%.2f s traced\n",
               workload_name(opt.workload),
               static_cast<unsigned long long>(opt.seed), n_sessions, untraced_s,
               traced_s);
  report.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::vector<Cell> grid = make_grid(opt.workload);

  std::vector<std::size_t> order;
  if (opt.record) {
    for (std::size_t i = 0; i < grid.size(); ++i) order.push_back(i);
  } else {
    order = session_order(grid.size());
  }
  if (opt.smoke) {
    // Three sessions of the cheapest app, keeping their grid indices so the
    // reference digests still apply.
    std::vector<std::size_t> fe;
    for (std::size_t i : order)
      if (apps::registry()[grid[i].app].name == "fe" && fe.size() < 3)
        fe.push_back(i);
    order = fe;
  }

  try {
    if (opt.record) return run_record(opt, grid, order);
    return opt.trace ? run_traced(opt, grid, order)
                     : run_end_to_end(opt, grid, order);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
