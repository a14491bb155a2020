#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <optional>

#include "rt/device.hpp"

namespace perfbench {

std::int64_t SpanLog::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::int32_t>(i);
  names_.push_back(name);
  return static_cast<std::int32_t>(names_.size() - 1);
}

std::size_t SpanLog::open(const std::string& name, std::uint32_t session) {
  Span s;
  s.name = intern(name);
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  s.session = session;
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t idx) {
  spans_[idx].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void SpanLog::rename(std::size_t idx, const std::string& name) {
  spans_[idx].name = intern(name);
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "session\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.session, i, s.parent,
                 names_[static_cast<std::size_t>(s.name)].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

/// RAII span: closes on scope exit, so an exception leaves the log balanced.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint32_t session)
      : log_(log), idx_(log.open(name, session)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t index() const { return idx_; }

 private:
  SpanLog& log_;
  std::size_t idx_;
};

const char* invoke_span(const rt::InvokeReport& r) {
  if (r.compiled_this_call || r.remote_compile) return kSpanInvokeCompile;
  if (r.mode == rt::ExecMode::kRemote) return kSpanInvokeRemote;
  if (r.mode == rt::ExecMode::kInterpret || r.mode == rt::ExecMode::kBaseline)
    return kSpanInvokeInterp;
  return kSpanInvokeNative;
}

}  // namespace

SessionOutcome replay_cell(const Runners& runners, const Cell& c,
                           std::uint32_t session, SpanLog& log,
                           obs::TraceBuffer& trace, ReplayStats* stats) {
  const sim::ScenarioRunner& runner = runners.for_cell(c);
  const apps::App& app = runner.app();
  const rt::ClientConfig cfg = cell_config(c, runner.client_config);
  const std::uint64_t seed = runners.seed_for(c);

  // The channel, scale sequence and sequence seed, derived exactly as
  // ScenarioRunner::run / run_single derive them.
  std::vector<double> scales;
  std::unique_ptr<radio::ChannelProcess> channel;
  std::uint64_t seq_seed = 0;
  if (c.single) {
    scales = {c.scale};
    channel = std::make_unique<radio::FixedChannel>(c.channel);
    seq_seed = seed ^ (static_cast<std::uint64_t>(c.channel) << 16);
  } else {
    Rng rng(seed ^ (static_cast<std::uint64_t>(c.situation) * 0x9e3779b9));
    scales = sim::scenario_scales(app, c.situation, rng, c.executions);
    channel = std::make_unique<radio::IidChannel>(
        sim::channel_weights(c.situation), /*dwell=*/0.25, seed ^ 0xc4a77e1);
    seq_seed = seed ^ (static_cast<std::uint64_t>(c.situation) << 8);
  }

  SessionOutcome o;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    Scope whole(log, kSpanSession, session);
    std::optional<rt::Server> server;
    std::optional<net::Link> link;
    std::optional<rt::Client> client;
    {
      Scope s(log, kSpanServerSetup, session);
      server.emplace();
      server->deploy(runner.profiled_classes());
    }
    {
      Scope s(log, kSpanLinkSetup, session);
      link.emplace(radio::CommModel{}, seq_seed ^ 0x11777);
      if (runner.fault_plan.enabled) {
        net::FaultPlan plan = runner.fault_plan;
        plan.seed = seq_seed ^ 0xFA017;
        link->attach_faults(plan);
        server->set_fault_plan(plan);
      }
    }
    {
      Scope s(log, kSpanClientSetup, session);
      client.emplace(cfg, *server, *channel, *link);
      client->set_trace(&trace);
      client->deploy(runner.profiled_classes());
      client->device().core.step_limit = 500'000'000'000ULL;
    }

    sim::StrategyResult& out = o.result;
    Rng workload_rng(seq_seed ^ 0xA0B1C2D3);
    Rng gap_rng(seq_seed ^ 0x5e5e5e);
    rt::Device& dev = client->device();
    for (double scale : scales) {
      client->skip_time(gap_rng.uniform_real(0.2, 2.0) * runner.think_time_s *
                        2.0);
      const std::size_t mark = dev.arena.heap_mark();
      std::vector<jvm::Value> args;
      {
        Scope s(log, kSpanMakeArgs, session);
        args = app.make_args(dev.vm, scale, workload_rng);
      }
      rt::InvokeReport report;
      jvm::Value result;
      {
        Scope s(log, kSpanInvokeInterp, session);
        result = client->run(app.cls, app.method, args, c.strategy, &report);
        log.rename(s.index(), invoke_span(report));
      }
      bool ok = false;
      {
        Scope s(log, kSpanCheck, session);
        ok = app.check(dev.vm, args, dev.vm, result);
      }
      if (!ok) out.all_correct = false;
      out.total_energy_j += report.energy_j;
      out.server_j += report.server_j;
      out.total_seconds += report.seconds;
      ++out.mode_counts[report.mode];
      if (report.compiled_this_call) ++out.compiles;
      if (report.remote_compile) ++out.remote_compiles;
      if (report.fallback_local) ++out.fallbacks;
      ++out.executions;
      out.retries += report.resilience.retries;
      out.bounds_faults += report.resilience.bounds_faults;
      out.wasted_retry_j += report.resilience.wasted_energy_j;
      for (std::size_t k = 0; k < rt::kNumFailureClasses; ++k) {
        out.remote_failures += report.resilience.failures[k];
        out.failures_by_class[k] += report.resilience.failures[k];
      }
      if (stats) stats->remote_attempts += report.resilience.attempts;
      {
        Scope s(log, kSpanHeapRelease, session);
        dev.arena.heap_release(mark);
      }
    }
    out.breaker_opened = client->breaker().times_opened;
    out.breaker_reclosed = client->breaker().times_reclosed;
    out.computation_j = dev.meter.computation();
    out.communication_j = dev.meter.communication();
    out.idle_j = dev.meter.of(energy::Subsystem::kIdle);
    out.dram_j = dev.meter.of(energy::Subsystem::kDram);
    if (stats) {
      const mem::CacheStats& ic = dev.hier.icache().stats();
      const mem::CacheStats& dc = dev.hier.dcache().stats();
      stats->icache_hits += ic.hits;
      stats->icache_misses += ic.misses;
      stats->dcache_hits += dc.hits;
      stats->dcache_misses += dc.misses;
    }
    {
      Scope s(log, kSpanTeardown, session);
      client.reset();
      link.reset();
      server.reset();
    }
    o.digest = digest_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: replay of %s threw: %s\n",
                 c.label.c_str(), e.what());
    o.threw = true;
  }
  o.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return o;
}

}  // namespace perfbench
