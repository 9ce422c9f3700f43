// service_bench — the end-to-end benchmark of the overlay matching service.
//
// Drives serve::ServiceLoop the way a deployment does. One writer thread
// applies churn bursts on an open-loop schedule: each burst has a due time,
// the writer spin-waits to it (sleeping would let the core go cold and time
// the host's wake-up instead of the program), and a burst that comes due
// while the writer is still busy waits its turn, so queueing shows in its
// freshness. Closed-loop reader threads run the overmatch_serve query mix
// against store().acquire() the whole time. Bursts are generated from the
// seed before timing starts; the service only sees the bursts.
//
// Each run: set-up (repeated, median reported), warm-up bursts (discarded),
// the measured phase, then a correctness gate that compares the final
// snapshot with a recomputed greedy oracle. The measured phase is a series
// of one-second rounds: open-loop bursts for most of the round, then a
// capacity chunk of bursts applied back to back. Interleaving the two
// spreads every metric over the whole phase, so a slow stretch of the host
// moves a few samples of each rather than all of one. For the same reason
// the end-to-end tails are medians over five-round windows and reader_qps
// is the median round.
//
//   service_bench --workload=steady --seed=1 --seconds=45 [--trace=1
//                 --trace-out=FILE] [--smoke]
//
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics when untraced, the
// per-layer metrics when --trace=1. The exit code is nonzero when any
// correctness check failed. benchmark/run.py builds and runs this program;
// benchmark/README.md defines every metric and workload.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "histogram.hpp"
#include "matching/dynamic_bsuitor.hpp"
#include "matching/matching.hpp"
#include "obs/registry.hpp"
#include "overlay/churn.hpp"
#include "prefs/satisfaction.hpp"
#include "prefs/weights.hpp"
#include "serve/service_loop.hpp"
#include "serve/snapshot.hpp"
#include "trace.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace overmatch::benchmark {
namespace {

using Clock = std::chrono::steady_clock;
using matching::ChurnEvent;
using Burst = std::vector<ChurnEvent>;

constexpr double kDegree = 8.0;
constexpr std::uint32_t kQuota = 3;
constexpr std::size_t kWarmupBursts = 100;
/// Set-up runs at least 5 times and, for small instances, until 3 s have
/// been spent on it, so its median spans more than one moment of the host.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 60;
constexpr double kSetupSeconds = 3.0;
/// One round of the measured phase: open-loop bursts for this long, then
/// the workload's capacity chunk back to back (about 0.1 s of writer time).
constexpr double kRoundSeconds = 1.0;
constexpr double kOpenLoopSeconds = 0.9;
/// The end-to-end tails are taken per window of this many rounds and the
/// run reports the median window, so a host stall of a second or two moves
/// one window's tail rather than the run's (a one-second stall once lifted
/// a pooled freshness p99 from ~12 ms to 333 ms).
constexpr std::size_t kWindowRounds = 5;
/// Tail percentile of per-burst times: a 5-round window holds 280 open-loop
/// bursts at one per 16 ms, so a few samples lie beyond it. It is also the
/// steadiest per-burst statistic on a shared host: across 10-run sets the
/// median's spread was about twice the p99's.
constexpr double kTailPercentile = 99.0;
/// Every 16th query's latency goes into the reader histogram.
constexpr std::uint64_t kLatencyStride = 16;
/// Traced runs sample every 1024th query into reader spans.
constexpr std::uint64_t kReadSpanStride = 1024;
constexpr std::size_t kReadSamplesPerReader = std::size_t{1} << 18;
/// Reader samples per reader that also go into the trace file (the rest
/// only feed the per-layer metrics), to keep the file a few MB.
constexpr std::size_t kReadSpansPerReader = 2048;
/// Traced runs alternate blocks of 8 measured bursts with and without span
/// recording, and compare the two halves' freshness to measure what the
/// tracing costs.
constexpr std::size_t kTraceBlock = 8;

constexpr std::uint64_t kTrafficSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kToggleSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kReaderSalt = 0x165667b19e3779f9ULL;

/// One traffic mix. All use ER graphs of average degree 8 and quota 3.
struct Workload {
  std::string_view name;
  std::size_t n;
  overlay::ChurnArrival arrival;
  double mean_events;        ///< node events per burst (arrival mean)
  std::size_t edge_toggles;  ///< edge toggles appended to every burst
  double period_ms;          ///< one burst is due every period
  std::size_t readers;
  double limit_ms;           ///< freshness limit for slo_met_frac
  std::size_t chunk;         ///< capacity bursts per round (~0.1 s of writer time)
};

constexpr std::array<Workload, 2> kWorkloads = {{
    {"steady", 100'000, overlay::ChurnArrival::kPoisson, 48.0, 16, 16.0, 1,
     50.0, 16},
    {"read-heavy", 20'000, overlay::ChurnArrival::kPoisson, 16.0, 0, 8.0, 2,
     10.0, 128},
}};

struct Plan {
  std::size_t n = 0;
  std::size_t warmup = 0;        ///< bursts
  std::size_t rounds = 0;        ///< of the measured phase
  std::size_t round_bursts = 0;  ///< open-loop bursts per round
  std::size_t chunk = 0;         ///< capacity bursts per round
  std::size_t windows = 0;       ///< of kWindowRounds rounds (the last may be short)
  double setup_s = 0.0;  ///< set-up repeats continue until this is spent
};

[[nodiscard]] std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] double median(const std::vector<double>& xs) {
  return util::percentile(xs, 50.0);
}
[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

struct Checks {
  std::uint64_t made = 0;
  std::uint64_t failed = 0;
  void add(bool ok, const char* what) {
    ++made;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "service_bench: check failed: %s\n", what);
    }
  }
};

// ---- set-up -----------------------------------------------------------------

/// The service and everything it borrows. Members are declared in borrowing
/// order so the loop is destroyed before what it references.
struct Service {
  graph::Graph g;
  std::unique_ptr<prefs::PreferenceProfile> profile;
  std::unique_ptr<prefs::EdgeWeights> weights;
  obs::Registry registry;
  std::unique_ptr<serve::ServiceLoop> loop;
};

struct SetupTimes {
  std::vector<double> total_s, graph_s, profile_s, weights_s;
};

/// Builds graph, profile, weights and the ServiceLoop (initial fixed point
/// and the epoch-1 publish), as overmatch_serve does: sequential repair, the
/// default delta publish, no deadline, a registry attached.
std::unique_ptr<Service> set_up(std::size_t n, std::size_t readers,
                                std::uint64_t seed, Clock::time_point origin,
                                SetupTimes& times, SpanBuffer* spans) {
  auto svc = std::make_unique<Service>();
  const auto t0 = Clock::now();
  util::Rng rng(seed);
  svc->g = graph::by_name("er", n, kDegree, rng);
  const auto t1 = Clock::now();
  svc->profile = std::make_unique<prefs::PreferenceProfile>(
      prefs::PreferenceProfile::random(
          svc->g, prefs::uniform_quotas(svc->g, kQuota), rng));
  const auto t2 = Clock::now();
  svc->weights =
      std::make_unique<prefs::EdgeWeights>(prefs::paper_weights(*svc->profile));
  const auto t3 = Clock::now();
  serve::ServeOptions opts;
  opts.seed = seed;
  opts.registry = &svc->registry;
  opts.max_readers = readers + 1;  // + the correctness gate's handle
  svc->loop =
      std::make_unique<serve::ServiceLoop>(*svc->profile, *svc->weights, opts);
  const auto t4 = Clock::now();

  times.total_s.push_back(seconds_between(t0, t4));
  times.graph_s.push_back(seconds_between(t0, t1));
  times.profile_s.push_back(seconds_between(t1, t2));
  times.weights_s.push_back(seconds_between(t2, t3));
  if (spans != nullptr) {
    const auto at = [origin](Clock::time_point t) { return ns_between(origin, t); };
    const std::uint64_t root = spans->add("setup", 0, 0, at(t0), at(t4));
    spans->add("graph.build", root, 0, at(t0), at(t1));
    spans->add("prefs.profile", root, 0, at(t1), at(t2));
    spans->add("prefs.weights", root, 0, at(t2), at(t3));
    spans->add("serve.loop_init", root, 0, at(t3), at(t4));
  }
  return svc;
}

/// The run's churn: ChurnTraffic node events, plus edge toggles that are
/// valid in order because the source tracks each edge's state.
class BurstSource {
 public:
  BurstSource(const Workload& wl, const graph::Graph& g, std::uint64_t seed)
      : g_(g),
        toggles_(wl.edge_toggles),
        traffic_(g.num_nodes(), wl.arrival, wl.mean_events, seed ^ kTrafficSalt),
        rng_(seed ^ kToggleSalt),
        edge_off_(g.num_edges(), 0) {}

  [[nodiscard]] std::vector<Burst> take(std::size_t count) {
    std::vector<Burst> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Burst b = traffic_.next_burst();
      for (std::size_t j = 0; j < toggles_; ++j) {
        const auto e = static_cast<graph::EdgeId>(rng_.index(g_.num_edges()));
        const auto& [u, v] = g_.edge(e);
        b.push_back(edge_off_[e] != 0 ? ChurnEvent::edge_up(u, v)
                                      : ChurnEvent::edge_down(u, v));
        edge_off_[e] ^= 1;
      }
      out.push_back(std::move(b));
    }
    return out;
  }

 private:
  const graph::Graph& g_;
  std::size_t toggles_;
  overlay::ChurnTraffic traffic_;
  util::Rng rng_;
  std::vector<std::uint8_t> edge_off_;
};

// ---- readers ----------------------------------------------------------------

enum Phase : int { kWarmup, kMeasured, kDone };

/// One sampled read of a traced run (ns since the run's clock origin).
struct ReadSample {
  std::int64_t start_ns, acquired_ns, queried_ns, released_ns;
  std::uint64_t epoch;
  std::uint64_t staleness;  ///< current_epoch() - snapshot epoch at acquire
};

struct alignas(64) ReaderState {
  std::atomic<std::uint64_t> queries{0};
  std::uint64_t failed_checks = 0;  ///< written by the reader before it exits
  double sink = 0.0;
  std::vector<LogHistogram> latency_ns;  ///< one per window of the measured phase
  std::vector<ReadSample> samples;
};

/// The closed-loop readers: each pins the current snapshot, scans the
/// neighbour list of a uniform random node, reads its satisfaction and,
/// every 64th query, the aggregates; then releases. Each reader checks that
/// epochs never go backwards and that no node exceeds its quota.
class Readers {
 public:
  Readers(serve::MatchingStore& store, std::size_t count, std::size_t windows,
          std::uint64_t seed, bool trace, Clock::time_point origin)
      : store_(store), trace_(trace), origin_(origin) {
    for (std::size_t r = 0; r < count; ++r) {
      states_.push_back(std::make_unique<ReaderState>());
      states_.back()->latency_ns.resize(windows);
      if (trace) states_.back()->samples.reserve(kReadSamplesPerReader);
    }
    threads_.reserve(count);
    for (std::size_t r = 0; r < count; ++r) {
      threads_.emplace_back([this, r, seed] {
        run(*states_[r], seed ^ (kReaderSalt + r));
      });
    }
  }
  ~Readers() { stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void set_phase(Phase p) noexcept { phase_.store(p, std::memory_order_release); }
  /// Which latency histogram measured reads go to from now on.
  void set_window(std::size_t w) noexcept { window_.store(w, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t total_queries() const noexcept {
    std::uint64_t q = 0;
    for (const auto& s : states_) q += s->queries.load(std::memory_order_relaxed);
    return q;
  }

  /// Stops the readers and hands over their tallies.
  [[nodiscard]] std::vector<std::unique_ptr<ReaderState>> take_states() {
    stop();
    return std::move(states_);
  }

 private:
  void stop() {
    set_phase(kDone);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  void run(ReaderState& st, std::uint64_t seed) {
    auto handle = store_.register_reader();
    util::Rng rng(seed);
    std::uint64_t q = 0;
    std::uint64_t last_epoch = 0;
    std::uint64_t failed = 0;
    double sink = 0.0;
    for (;;) {
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase == kDone) break;
      const bool measured = phase == kMeasured;
      const bool timed = measured && q % kLatencyStride == 0;
      const bool sampled = trace_ && measured && q % kReadSpanStride == 0 &&
                           st.samples.size() < st.samples.capacity();
      Clock::time_point t0, t_acq, t_query;
      if (timed || sampled) t0 = Clock::now();

      serve::SnapshotRef snap = store_.acquire(handle);
      const std::uint64_t epoch = snap->epoch();
      std::uint64_t staleness = 0;
      if (sampled) {
        t_acq = Clock::now();
        staleness = store_.current_epoch() - epoch;
      }
      if (epoch < last_epoch) ++failed;
      last_epoch = epoch;
      const auto v = static_cast<graph::NodeId>(rng.index(snap->num_nodes()));
      const auto neighbors = snap->neighbors(v);
      if (neighbors.size() > kQuota) ++failed;
      for (const graph::NodeId u : neighbors) sink += static_cast<double>(u);
      sink += snap->satisfaction(v);
      if (q % 64 == 0) {
        sink += snap->matched_weight() + static_cast<double>(epoch);
      }
      if (sampled) t_query = Clock::now();
      snap.release();

      if (timed || sampled) {
        const auto t1 = Clock::now();
        if (timed) {
          st.latency_ns[window_.load(std::memory_order_relaxed)].add(
              static_cast<std::uint64_t>(ns_between(t0, t1)));
        }
        if (sampled) {
          st.samples.push_back({ns_between(origin_, t0), ns_between(origin_, t_acq),
                                ns_between(origin_, t_query),
                                ns_between(origin_, t1), epoch, staleness});
        }
      }
      st.queries.store(++q, std::memory_order_relaxed);
    }
    st.failed_checks = failed;
    st.sink = sink;
  }

  serve::MatchingStore& store_;
  const bool trace_;
  const Clock::time_point origin_;
  std::atomic<int> phase_{kWarmup};
  std::atomic<std::size_t> window_{0};
  std::vector<std::unique_ptr<ReaderState>> states_;
  std::vector<std::thread> threads_;  // last: joined before the rest goes
};

// ---- writer -----------------------------------------------------------------

/// What the writer saw for one burst. Times are ns since the clock origin.
struct BurstRecord {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  serve::ServiceLoop::StepStats st;
  std::size_t frontier = 0;
  std::size_t changed_nodes = 0;
  std::size_t changed_edges = 0;
  std::size_t retired = 0;
  std::size_t live_pages = 0;
  bool ok = false;

  [[nodiscard]] double freshness_ms() const noexcept {
    return static_cast<double>(end_ns - due_ns) / 1e6;
  }
  // The epoch's phases, as its spans lay them out: matching.apply and
  // serve.publish are timed by the loop itself (StepStats); serve.refresh
  // is the rest of the apply() call, i.e. the epoch span's self time
  // (satisfaction refresh and bookkeeping between repair and publish).
  [[nodiscard]] std::int64_t apply_end_ns() const noexcept {
    return std::min(end_ns, start_ns + static_cast<std::int64_t>(st.apply_ns));
  }
  [[nodiscard]] std::int64_t publish_start_ns() const noexcept {
    return std::max(apply_end_ns(),
                    end_ns - static_cast<std::int64_t>(st.publish_ns));
  }
};

BurstRecord apply_burst(serve::ServiceLoop& loop, const Burst& burst,
                        Clock::time_point due, Clock::time_point origin) {
  BurstRecord r;
  const auto start = Clock::now();
  r.st = loop.apply(burst);
  const auto end = Clock::now();
  r.due_ns = ns_between(origin, due);
  r.start_ns = ns_between(origin, start);
  r.end_ns = ns_between(origin, end);
  // Visible on return: the store already serves this burst's epoch.
  r.ok = r.st.epoch == loop.store().current_epoch() && !r.st.truncated;
  r.frontier = loop.engine().last_batch().frontier;
  r.changed_nodes = loop.engine().last_changed_nodes().size();
  r.changed_edges = loop.engine().last_changed_edges().size();
  r.retired = loop.store().retired_count();
  r.live_pages = serve::live_page_count();
  return r;
}

/// serve.burst (due → visible) holds serve.queue_wait (due → apply call)
/// and serve.epoch (the apply() call), which holds matching.apply,
/// serve.refresh and serve.publish.
void emit_burst_spans(SpanBuffer& spans, const BurstRecord& r) {
  const std::uint64_t e = r.st.epoch;
  const std::uint64_t burst = spans.add("serve.burst", 0, e, r.due_ns, r.end_ns);
  spans.add("serve.queue_wait", burst, e, r.due_ns, r.start_ns);
  const std::uint64_t epoch =
      spans.add("serve.epoch", burst, e, r.start_ns, r.end_ns);
  spans.add("matching.apply", epoch, e, r.start_ns, r.apply_end_ns());
  spans.add("serve.refresh", epoch, e, r.apply_end_ns(), r.publish_start_ns());
  spans.add("serve.publish", epoch, e, r.publish_start_ns(), r.end_ns);
}

[[nodiscard]] bool traced_block(std::size_t k) noexcept {
  return (k / kTraceBlock) % 2 == 0;
}

/// Applies `bursts` on the open-loop schedule and appends their records:
/// burst k is due at start + k·period. The writer spins to each due time; a
/// burst already due is applied at once and its wait counts in its
/// freshness. `records` has room reserved, so appending never allocates.
void run_open_loop(serve::ServiceLoop& loop, const std::vector<Burst>& bursts,
                   std::chrono::nanoseconds period, Clock::time_point origin,
                   SpanBuffer* spans, std::vector<BurstRecord>& records) {
  const auto base = Clock::now();
  for (std::size_t k = 0; k < bursts.size(); ++k) {
    const auto due = base + period * static_cast<std::int64_t>(k);
    while (Clock::now() < due) {
    }
    records.push_back(apply_burst(loop, bursts[k], due, origin));
    if (spans != nullptr && traced_block(records.size() - 1)) {
      emit_burst_spans(*spans, records.back());
    }
  }
}

// ---- correctness ------------------------------------------------------------

/// The greedy matching (heaviest edge first), recomputed from an empty
/// matching over exactly the configuration the snapshot says it is the
/// fixed point of. Under the strict weight order this is the unique
/// b-suitor fixed point the service must publish.
std::vector<graph::EdgeId> greedy_fixed_point(const prefs::EdgeWeights& w,
                                              const prefs::Quotas& quotas,
                                              const serve::MatchingSnapshot& snap) {
  const auto& g = w.graph();
  matching::Matching m(g, quotas);
  for (const graph::EdgeId e : w.by_weight()) {
    if (!snap.edge_enabled(e)) continue;
    const auto& [u, v] = g.edge(e);
    if (!snap.alive(u) || !snap.alive(v)) continue;
    if (m.can_add(e)) m.add(e);
  }
  std::vector<graph::EdgeId> edges = m.edges();
  std::sort(edges.begin(), edges.end());
  return edges;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.made),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(const util::Flags& flags) {
  const std::string name = flags.get("workload", "steady");
  const auto it = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [&name](const Workload& w) { return w.name == name; });
  if (it == kWorkloads.end()) {
    std::fprintf(stderr,
                 "service_bench: unknown --workload '%s' (valid: steady, "
                 "read-heavy)\n",
                 name.c_str());
    return 2;
  }
  const Workload& wl = *it;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 45.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const bool smoke = flags.has("smoke");
  const std::string trace_out = flags.get("trace-out", "");
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "service_bench: --seconds must be positive\n");
    return 2;
  }

  Plan plan;
  plan.n = smoke ? wl.n / 10 : wl.n;
  plan.warmup = smoke ? 10 : kWarmupBursts;
  plan.rounds = smoke ? 2
                      : std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                                     seconds / kRoundSeconds)));
  plan.round_bursts =
      smoke ? 50
            : static_cast<std::size_t>(std::llround(kOpenLoopSeconds * 1e3 / wl.period_ms));
  plan.chunk = smoke ? 4 : wl.chunk;
  plan.windows = (plan.rounds + kWindowRounds - 1) / kWindowRounds;
  plan.setup_s = smoke ? 0.0 : kSetupSeconds;
  const std::size_t measured_bursts = plan.rounds * plan.round_bursts;
  const auto period =
      std::chrono::nanoseconds(static_cast<std::int64_t>(wl.period_ms * 1e6));

  const auto origin = Clock::now();
  std::unique_ptr<SpanBuffer> spans;
  if (trace) {
    spans = std::make_unique<SpanBuffer>(kMaxSetups * 5 + kMinSetups * 2 +
                                         measured_bursts * 6 +
                                         wl.readers * kReadSpansPerReader * 4);
  }

  // Set-up, repeated; the last instance serves the run.
  SetupTimes setup;
  std::unique_ptr<Service> svc;
  while (setup.total_s.size() < kMinSetups ||
         (setup.total_s.size() < kMaxSetups &&
          std::accumulate(setup.total_s.begin(), setup.total_s.end(), 0.0) <
              plan.setup_s)) {
    svc.reset();
    svc = set_up(plan.n, wl.readers, seed, origin, setup, spans.get());
  }
  serve::ServiceLoop& loop = *svc->loop;
  const std::size_t m = svc->g.num_edges();

  // Every burst of the run, in the order the service receives them.
  BurstSource source(wl, svc->g, seed);
  const std::vector<Burst> warmup = source.take(plan.warmup);
  std::vector<std::vector<Burst>> paced(plan.rounds), chunks(plan.rounds);
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    paced[r] = source.take(plan.round_bursts);
    chunks[r] = source.take(plan.chunk);
  }

  std::printf(
      "service_bench %s: n=%zu m=%zu, one burst per %.0f ms, %zu warm-up bursts, "
      "%zu rounds of %zu open-loop + %zu back-to-back bursts, %zu set-ups, %zu "
      "reader(s), seed %llu, trace %d, hardware_concurrency=%u\n",
      std::string(wl.name).c_str(), plan.n, m, wl.period_ms, plan.warmup, plan.rounds,
      plan.round_bursts, plan.chunk, setup.total_s.size(), wl.readers,
      static_cast<unsigned long long>(seed), trace ? 1 : 0,
      std::thread::hardware_concurrency());
  std::fflush(stdout);

  Checks checks;
  std::vector<BurstRecord> warmup_records, measured_records, capacity_records;
  warmup_records.reserve(plan.warmup);
  measured_records.reserve(measured_bursts);
  capacity_records.reserve(plan.rounds * plan.chunk);
  std::vector<double> chunk_rates;  ///< events/s of each capacity chunk
  chunk_rates.reserve(plan.rounds);
  std::vector<double> round_qps;  ///< queries/s of all readers in each round
  round_qps.reserve(plan.rounds);
  std::vector<std::unique_ptr<ReaderState>> reader_states;
  {
    Readers readers(loop.store(), wl.readers, plan.windows, seed, trace, origin);
    run_open_loop(loop, warmup, period, origin, nullptr, warmup_records);

    readers.set_phase(kMeasured);
    std::uint64_t q0 = readers.total_queries();
    auto r0 = Clock::now();
    for (std::size_t r = 0; r < plan.rounds; ++r) {
      readers.set_window(r / kWindowRounds);
      run_open_loop(loop, paced[r], period, origin, spans.get(), measured_records);
      std::size_t events = 0;
      const auto c0 = Clock::now();
      for (const Burst& b : chunks[r]) {
        capacity_records.push_back(apply_burst(loop, b, Clock::now(), origin));
        events += b.size();
      }
      const auto r1 = Clock::now();
      chunk_rates.push_back(static_cast<double>(events) / seconds_between(c0, r1));
      const std::uint64_t q1 = readers.total_queries();
      round_qps.push_back(static_cast<double>(q1 - q0) / seconds_between(r0, r1));
      q0 = q1;
      r0 = r1;
    }
    reader_states = readers.take_states();
    for (const auto& st : reader_states) {
      checks.made += st->queries.load(std::memory_order_relaxed);
      checks.failed += st->failed_checks;
      if (st->failed_checks > 0) {
        std::fprintf(stderr,
                     "service_bench: check failed: %llu reads saw an epoch go "
                     "back or a node over quota\n",
                     static_cast<unsigned long long>(st->failed_checks));
      }
    }
  }

  std::size_t retired_peak = 0;
  std::size_t live_pages_peak = 0;
  for (const auto* records : {&warmup_records, &measured_records, &capacity_records}) {
    for (const BurstRecord& r : *records) {
      checks.add(r.ok, "burst visible at its epoch on return, not truncated");
      retired_peak = std::max(retired_peak, r.retired);
      live_pages_peak = std::max(live_pages_peak, r.live_pages);
    }
  }

  // Correctness gate, outside timing.
  {
    auto handle = loop.store().register_reader();
    serve::SnapshotRef snap = loop.store().acquire(handle);
    checks.add(snap->matched_edges() ==
                   greedy_fixed_point(*svc->weights, svc->profile->quotas(), *snap),
               "final snapshot equals the recomputed greedy fixed point");
    checks.add(serve::count_blocking_edges(*svc->weights, *svc->profile, *snap) == 0,
               "final snapshot has no blocking edge");
    checks.add(!loop.engine().truncated() && loop.engine().pending_repairs() == 0,
               "no truncated epoch and no pending repair");
  }
  svc->loop.reset();
  checks.add(serve::live_page_count() == 0, "every snapshot page freed with the loop");

  std::vector<double> fresh;
  std::size_t slo_met = 0;
  for (const BurstRecord& r : measured_records) {
    fresh.push_back(r.freshness_ms());
    if (r.ok && r.freshness_ms() <= wl.limit_ms) ++slo_met;
  }
  const double reader_qps = median(round_qps);
  std::vector<Metric> metrics;

  if (!trace) {
    // The tails of each window; open-loop bursts are stored round by round.
    const std::size_t window_bursts = kWindowRounds * plan.round_bursts;
    std::vector<double> fresh_tail, read_tail_ns;
    for (std::size_t w = 0; w < plan.windows; ++w) {
      const auto first = fresh.begin() + static_cast<std::ptrdiff_t>(w * window_bursts);
      const auto last = fresh.begin() + static_cast<std::ptrdiff_t>(std::min(
                                            fresh.size(), (w + 1) * window_bursts));
      fresh_tail.push_back(util::percentile(std::vector<double>(first, last),
                                            kTailPercentile));
      LogHistogram read_ns;
      for (const auto& st : reader_states) read_ns.merge(st->latency_ns[w]);
      read_tail_ns.push_back(read_ns.quantile(0.99));
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", median(setup.total_s), "s"},
        {"freshness_p99_ms", median(fresh_tail), "ms"},
        {"slo_met_frac",
         static_cast<double>(slo_met) / static_cast<double>(fresh.size()), "fraction"},
        {"reader_qps", reader_qps, "queries/s"},
        {"read_p99_us", median(read_tail_ns) / 1e3, "us"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
    };
    print_result(checks, metrics);
    return checks.failed == 0 ? 0 : 1;
  }

  // Standalone costs of the two set-up steps that ServiceLoop's constructor
  // hides: the initial fixed point and a full capture.
  std::vector<double> init_s, capture_ms;
  for (std::size_t r = 0; r < kMinSetups; ++r) {
    const auto t0 = Clock::now();
    matching::DynamicBSuitor dyn(*svc->weights, svc->profile->quotas());
    const auto t1 = Clock::now();
    std::vector<double> sat(plan.n, 0.0);
    for (graph::NodeId v = 0; v < plan.n; ++v) {
      sat[v] = prefs::satisfaction(*svc->profile, v, dyn.matching().connections(v));
    }
    const auto t2 = Clock::now();
    auto snap = serve::MatchingSnapshot::capture(dyn, sat, 1, obs::Snapshot{});
    const auto t3 = Clock::now();
    init_s.push_back(seconds_between(t0, t1));
    capture_ms.push_back(seconds_between(t2, t3) * 1e3);
    spans->add("matching.init", 0, 0, ns_between(origin, t0), ns_between(origin, t1));
    spans->add("serve.capture_full", 0, 0, ns_between(origin, t2),
               ns_between(origin, t3));
  }

  // Reader samples all feed the metrics; the first few per reader also go
  // into the trace file. The sub-span durations are a few whole
  // nanoseconds, so their quantiles come from the interpolating histogram.
  LogHistogram acquire_ns, query_ns, release_ns;
  std::vector<double> staleness;
  const auto gap = [](std::int64_t a, std::int64_t b) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, b - a));
  };
  for (std::size_t r = 0; r < reader_states.size(); ++r) {
    const auto tid = static_cast<std::uint32_t>(r + 1);
    const auto& samples = reader_states[r]->samples;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const ReadSample& s = samples[i];
      acquire_ns.add(gap(s.start_ns, s.acquired_ns));
      query_ns.add(gap(s.acquired_ns, s.queried_ns));
      release_ns.add(gap(s.queried_ns, s.released_ns));
      staleness.push_back(static_cast<double>(s.staleness));
      if (i >= kReadSpansPerReader) continue;
      const std::uint64_t root =
          spans->add("serve.read", 0, s.epoch, s.start_ns, s.released_ns, tid);
      spans->add("serve.acquire", root, s.epoch, s.start_ns, s.acquired_ns, tid);
      spans->add("serve.query", root, s.epoch, s.acquired_ns, s.queried_ns, tid);
      spans->add("serve.release", root, s.epoch, s.queried_ns, s.released_ns, tid);
    }
  }

  // Writer phases over every measured burst, from the timestamps its spans
  // carry; the traced/untraced halves only split the freshness comparison.
  std::vector<double> queue_ms, epoch_ms, apply_ms, publish_ms, refresh_ms;
  std::vector<double> fresh_traced, fresh_untraced;
  double events = 0, coalesced = 0, frontier = 0, changed_nodes = 0,
         changed_edges = 0, apply_ns = 0, deltas = 0, dirty_frac = 0,
         delta_publish_ns = 0, dirty_pages = 0;
  const double pages = static_cast<double>(
      (plan.n + serve::kNodePageSize - 1) / serve::kNodePageSize +
      (m + serve::kEdgePageSize - 1) / serve::kEdgePageSize);
  const auto span_ms = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) / 1e6;
  };
  for (std::size_t k = 0; k < measured_records.size(); ++k) {
    const BurstRecord& r = measured_records[k];
    (traced_block(k) ? fresh_traced : fresh_untraced).push_back(r.freshness_ms());
    queue_ms.push_back(span_ms(r.due_ns, r.start_ns));
    epoch_ms.push_back(span_ms(r.start_ns, r.end_ns));
    apply_ms.push_back(span_ms(r.start_ns, r.apply_end_ns()));
    refresh_ms.push_back(span_ms(r.apply_end_ns(), r.publish_start_ns()));
    publish_ms.push_back(span_ms(r.publish_start_ns(), r.end_ns));
    events += static_cast<double>(r.st.events);
    coalesced += static_cast<double>(r.st.coalesced);
    frontier += static_cast<double>(r.frontier);
    changed_nodes += static_cast<double>(r.changed_nodes);
    changed_edges += static_cast<double>(r.changed_edges);
    apply_ns += static_cast<double>(r.st.apply_ns);
    if (r.st.delta) {
      deltas += 1;
      dirty_frac += static_cast<double>(r.st.dirty_pages) / pages;
      delta_publish_ns += static_cast<double>(r.st.publish_ns);
      dirty_pages += static_cast<double>(r.st.dirty_pages);
    } else {
      dirty_frac += 1.0;
    }
  }
  const double bursts_n = static_cast<double>(measured_records.size());
  const auto p = [](const std::vector<double>& xs, double pct) {
    return xs.empty() ? 0.0 : util::percentile(xs, pct);
  };
  metrics = {
      {"graph.build_s", median(setup.graph_s), "s"},
      {"prefs.profile_s", median(setup.profile_s), "s"},
      {"prefs.weights_s", median(setup.weights_s), "s"},
      {"matching.init_s", median(init_s), "s"},
      {"serve.capture_full_ms", median(capture_ms), "ms"},
      {"serve.freshness_p50_ms", p(fresh, 50.0), "ms"},
      {"serve.capacity_events_per_s", median(chunk_rates), "events/s"},
      {"serve.queue_wait_p50_ms", p(queue_ms, 50.0), "ms"},
      {"serve.queue_wait_p99_ms", p(queue_ms, kTailPercentile), "ms"},
      {"serve.epoch_p50_ms", p(epoch_ms, 50.0), "ms"},
      {"serve.epoch_p99_ms", p(epoch_ms, kTailPercentile), "ms"},
      {"matching.apply_p50_ms", p(apply_ms, 50.0), "ms"},
      {"matching.apply_p99_ms", p(apply_ms, kTailPercentile), "ms"},
      {"serve.publish_p50_ms", p(publish_ms, 50.0), "ms"},
      {"serve.publish_p99_ms", p(publish_ms, kTailPercentile), "ms"},
      {"serve.refresh_p50_ms", p(refresh_ms, 50.0), "ms"},
      {"matching.coalesced_frac", ratio(coalesced, events), "fraction"},
      {"matching.frontier_mean", ratio(frontier, bursts_n), "nodes"},
      {"matching.changed_nodes_mean", ratio(changed_nodes, bursts_n), "nodes"},
      {"matching.changed_edges_mean", ratio(changed_edges, bursts_n), "edges"},
      {"matching.apply_us_per_changed_node", ratio(apply_ns / 1e3, changed_nodes),
       "us"},
      {"serve.delta_frac", ratio(deltas, bursts_n), "fraction"},
      {"serve.dirty_page_frac", ratio(dirty_frac, bursts_n), "fraction"},
      {"serve.publish_us_per_dirty_page", ratio(delta_publish_ns / 1e3, dirty_pages),
       "us"},
      {"serve.retired_peak", static_cast<double>(retired_peak), "snapshots"},
      {"serve.live_pages_peak", static_cast<double>(live_pages_peak), "pages"},
      {"serve.acquire_p50_ns", acquire_ns.quantile(0.50), "ns"},
      {"serve.acquire_p99_ns", acquire_ns.quantile(0.99), "ns"},
      {"serve.query_p50_ns", query_ns.quantile(0.50), "ns"},
      {"serve.release_p50_ns", release_ns.quantile(0.50), "ns"},
      {"serve.qps_per_reader", reader_qps / static_cast<double>(wl.readers),
       "queries/s"},
      {"serve.staleness_epochs_p99", p(staleness, 99.0), "epochs"},
      {"trace.overhead_frac", ratio(p(fresh_traced, 50.0), p(fresh_untraced, 50.0)) - 1.0,
       "fraction"},
  };
  if (spans->dropped() > 0) {
    std::fprintf(stderr, "service_bench: %zu spans did not fit the buffer\n",
                 spans->dropped());
  }
  if (!trace_out.empty()) {
    checks.add(spans->write_chrome_trace(trace_out), "trace file written");
    std::printf("trace: %zu spans written to %s\n", spans->spans().size(),
                trace_out.c_str());
  }
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace overmatch::benchmark

int main(int argc, char** argv) {
  return overmatch::benchmark::run(overmatch::util::Flags(argc, argv));
}
