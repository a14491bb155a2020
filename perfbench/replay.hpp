// Traced replay of one session.
//
// Re-executes a cell through the same public calls
// sim::ScenarioRunner::run_sequence makes (rt::Server, net::Link, rt::Client,
// App::make_args, Client::run, App::check, Arena::heap_release), timing each
// call as a span on the host clock. An obs::TraceBuffer is attached through
// Client::set_trace to read the simulator's own counters. The replay builds
// its StrategyResult exactly as run_sequence does, so its digest must equal
// the untraced session's; that check is what ties the traced numbers to the
// real program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct Span {
  std::int32_t name = 0;     ///< Index into SpanLog::names().
  std::int32_t parent = -1;  ///< Index of the enclosing span, -1 = root.
  std::uint32_t session = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store for a whole run; written out once at the end.
class SpanLog {
 public:
  /// Open a span under the innermost open one; returns its index.
  std::size_t open(const std::string& name, std::uint32_t session);
  void close(std::size_t idx);
  /// Rename a closed span (Client::run spans are classified by their report).
  void rename(std::size_t idx, const std::string& name);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  /// Duration minus the time covered by direct children, per span.
  std::vector<std::int64_t> self_ns() const;
  /// Tab-separated: session, span, parent, name, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  std::int32_t intern(const std::string& name);
  static std::int64_t now_ns();

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::size_t> stack_;
};

/// Facts the replay reads besides the StrategyResult, summed over sessions.
struct ReplayStats {
  std::uint64_t icache_hits = 0, icache_misses = 0;
  std::uint64_t dcache_hits = 0, dcache_misses = 0;
  int remote_attempts = 0;  ///< Remote exchange attempts (all classes).
};

/// Replay `c` with spans recorded into `log` under `session` and counters
/// into `trace`. The returned outcome's digest is comparable with run_cell's.
SessionOutcome replay_cell(const Runners& runners, const Cell& c,
                           std::uint32_t session, SpanLog& log,
                           obs::TraceBuffer& trace, ReplayStats* stats);

/// Span names the replay records, by layer.
inline constexpr const char* kSpanSession = "sim.session";
inline constexpr const char* kSpanServerSetup = "rt.server_setup";
inline constexpr const char* kSpanLinkSetup = "net.link_setup";
inline constexpr const char* kSpanClientSetup = "rt.client_setup";
inline constexpr const char* kSpanMakeArgs = "apps.make_args";
inline constexpr const char* kSpanCheck = "apps.check";
inline constexpr const char* kSpanHeapRelease = "mem.heap_release";
inline constexpr const char* kSpanTeardown = "rt.teardown";
inline constexpr const char* kSpanInvokeInterp = "rt.invoke.interp";
inline constexpr const char* kSpanInvokeNative = "rt.invoke.native";
inline constexpr const char* kSpanInvokeCompile = "rt.invoke.compile";
inline constexpr const char* kSpanInvokeRemote = "rt.invoke.remote";

}  // namespace perfbench
