// The four workloads, their phases, and the metrics each run reports.
//
// Every throughput workload (fanin, fib, futures) runs a phase with one
// worker and a phase with pmax = nproc workers, in alternating rounds; each
// round builds a fresh runtime, warms up, then repeats one whole dag per
// repetition ("rep") until its time is spent, and checks every rep against
// values computed without the runtime. The service
// workload feeds a resident dag_service from an open-loop generator: first
// one worker at the low offered rate, then pmax = nproc - 2 workers (the
// dispatcher and the generator take the other two CPUs) at the high rate.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <random>

#include "dag/future.hpp"
#include "dag/parallel_for.hpp"
#include "perfbench.hpp"
#include "sched/runtime.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace spdag;

const char* const workload_names[] = {"fanin", "fib", "futures", "service",
                                      nullptr};

namespace {

// The specs users get by default, named so the benchmark keeps measuring
// them even if a default changes.
runtime_config default_config(std::size_t workers) {
  runtime_config c;
  c.workers = workers;
  c.counter = "dyn";
  c.sched = "ws";
  c.alloc = "pool";
  c.outset = "simple";
  return c;
}

// A runtime whose workers run only on `cpu`, or anywhere when `cpu` < 0.
// Workers inherit the affinity mask of the thread that starts them, so this
// thread narrows its own mask while the runtime is built, then restores it.
std::unique_ptr<runtime> make_runtime(std::size_t workers, int cpu) {
  if (cpu < 0) return std::make_unique<runtime>(default_config(workers));
  cpu_set_t saved, one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_getaffinity(0, sizeof(saved), &saved);
  sched_setaffinity(0, sizeof(one), &one);
  auto rt = std::make_unique<runtime>(default_config(workers));
  sched_setaffinity(0, sizeof(saved), &saved);
  return rt;
}

// This process's own peak resident set. VmHWM starts afresh at exec;
// getrusage's ru_maxrss would also count the parent's resident set at fork
// time (the launcher's), which can be the larger of the two.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) { return order_stat(v, 0.5); }

// Library counters read through the public accessors. A phase keeps their
// growth over its measured reps, summed over its rounds.
struct layer_counts {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t counter_ops = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steal_sweeps = 0;
  std::uint64_t parks = 0;
  std::uint64_t slab_growths = 0;
  std::uint64_t outset_adds = 0;
  std::uint64_t outset_delivered = 0;
  std::uint64_t leaf_ns = 0;
  std::uint64_t spawn_ns = 0;
  std::uint64_t spawns = 0;

  static layer_counts read(runtime& rt) {
    layer_counts c;
    engine_stats& e = rt.engine().stats();
    c.vertices = e.vertices_created.load(std::memory_order_relaxed);
    c.edges = e.edges.load(std::memory_order_relaxed);
    c.counter_ops = e.counter_incs.load(std::memory_order_relaxed) +
                    e.counter_decs.load(std::memory_order_relaxed);
    const scheduler_totals st = rt.sched().totals();
    c.steals = st.steals;
    c.failed_steal_sweeps = st.failed_steal_sweeps;
    c.parks = st.parks;
    c.slab_growths = rt.pools().totals().slab_growths;
    const outset_totals ot = rt.outsets().totals();
    c.outset_adds = ot.adds;
    c.outset_delivered = ot.delivered;
    const span_totals sp = sum_spans();
    c.leaf_ns = sp.ns[sp_leaf];
    c.spawn_ns = sp.ns[sp_spawn];
    c.spawns = sp.count[sp_spawn];
    return c;
  }
  // Adds the growth from `before` to `after`.
  void add_growth(const layer_counts& before, const layer_counts& after) {
    static constexpr std::uint64_t layer_counts::*fields[] = {
        &layer_counts::vertices,     &layer_counts::edges,
        &layer_counts::counter_ops,  &layer_counts::steals,
        &layer_counts::failed_steal_sweeps, &layer_counts::parks,
        &layer_counts::slab_growths, &layer_counts::outset_adds,
        &layer_counts::outset_delivered, &layer_counts::leaf_ns,
        &layer_counts::spawn_ns,     &layer_counts::spawns};
    for (std::uint64_t layer_counts::*f : fields) this->*f += after.*f - before.*f;
  }
};

double retained_mb(runtime& rt) {
  double bytes = 0;
  for (const pool_registry_row& r : rt.pools().rows()) {
    bytes += static_cast<double>(r.stats.retained()) *
             static_cast<double>(r.object_bytes);
  }
  return bytes / (1024.0 * 1024.0);
}

// One measured phase: per-rep samples plus the library counters' growth,
// gathered over one or more rounds.
struct phase {
  std::size_t workers = 0;
  std::uint64_t items_per_rep = 0;  // items one rep (or one job) counts
  std::vector<double> rep_ms;       // latency sample per rep / job
  std::vector<double> round_ms;     // median rep of each round
  std::vector<int> round_cpu;       // the CPU each round was confined to, or -1
  double span_s = 0;                // wall time the measured reps cover
  std::uint64_t reps = 0;
  double retained_mb = 0;           // after the last round
  layer_counts growth;

  // Items per second of the median round's median rep. Every round weighs
  // the same however many reps it ran. When rounds were confined to single
  // CPUs, the CPU whose median round was fastest counts: the other CPUs were
  // slowed by whatever else the host ran on them, not by the program.
  double items_per_s() const {
    std::map<int, std::vector<double>> by_cpu;
    for (std::size_t i = 0; i < round_ms.size(); ++i) {
      by_cpu[round_cpu[i]].push_back(round_ms[i]);
    }
    double best_ms = 0;
    for (auto& [cpu, ms] : by_cpu) {
      const double m = median(std::move(ms));
      if (best_ms == 0 || m < best_ms) best_ms = m;
    }
    return best_ms == 0 ? 0 : static_cast<double>(items_per_rep) / (best_ms / 1e3);
  }
  double per_rep(std::uint64_t n) const {
    return reps == 0 ? 0 : static_cast<double>(n) / static_cast<double>(reps);
  }
  // (workers x wall - time inside leaf bodies) / vertices.
  double overhead_ns_per_vertex() const {
    const double v = static_cast<double>(growth.vertices);
    return v == 0 ? 0
                  : (static_cast<double>(workers) * span_s * 1e9 -
                     static_cast<double>(growth.leaf_ns)) /
                        v;
  }
  double spawn_ns() const {
    return growth.spawns == 0 ? 0
                              : static_cast<double>(growth.spawn_ns) /
                                    static_cast<double>(growth.spawns);
  }
};

// --- fanin: the paper's Figure 8 -------------------------------------------

struct fanin_leaf {
  std::uint8_t* ran;
  std::uint64_t key;
  void operator()(std::size_t i) const {
    span_scope s(sp_leaf);
    ran[i] = static_cast<std::uint8_t>(ran[i] + 1);
    tally_slot& t = my_tally();
    bump(t.count, 1);
    bump(t.sum, i);
    bump(t.hash, mix(key ^ i));
  }
};

struct fanin_workload {
  static constexpr std::uint64_t leaves = std::uint64_t{1} << 18;
  std::uint64_t key;
  std::uint64_t expected_hash = 0;
  std::vector<std::uint8_t> ran;

  explicit fanin_workload(std::uint64_t seed) : key(mix(seed)), ran(leaves, 0) {
    for (std::uint64_t i = 0; i < leaves; ++i) expected_hash += mix(key ^ i);
  }
  std::uint64_t items() const { return leaves; }
  void rep(runtime& rt) {
    fanin_leaf leaf{ran.data(), key};
    rt.run([leaf] {
      span_scope s(sp_spawn);
      parallel_for(0, leaves, 1, leaf);
    });
  }
  std::string check() {
    const tally_total t = sum_tallies();
    std::string err = check_fanin(ran, t.count, t.sum, t.hash, expected_hash);
    std::fill(ran.begin(), ran.end(), 0);
    return err;
  }
};

// --- fib: the paper's Figure 4 ---------------------------------------------
// Every call k > 1 is finish_then(fork2(fib(k-1), fib(k-2)), sum). A call's
// result goes to its preorder index in `results`, so no call allocates:
// call idx has its left child at idx + 1 and its right child after the
// left child's whole subtree, at idx + 1 + calls(k - 1).

struct fib_workload {
  static constexpr unsigned n = 25;
  std::vector<std::uint64_t> calls;    // calls[k] = calls made by fib(k)
  std::vector<std::uint64_t> results;  // one slot per call, preorder

  fib_workload() {
    for (unsigned k = 0; k <= n; ++k) calls.push_back(fib_calls(k));
    results.assign(calls[n], 0);
  }
  std::uint64_t items() const { return calls[n]; }

  static void call(fib_workload* w, unsigned k, std::uint64_t idx) {
    bump(my_tally().count, 1);
    if (k <= 1) {
      span_scope s(sp_leaf);
      w->results[idx] = k;
      return;
    }
    const std::uint64_t left = idx + 1;
    const std::uint64_t right = idx + 1 + w->calls[k - 1];
    span_scope s(sp_spawn);
    finish_then(
        [w, k, left, right] {
          span_scope s2(sp_spawn);
          fork2([w, k, left] { call(w, k - 1, left); },
                [w, k, right] { call(w, k - 2, right); });
        },
        [w, idx, left, right] {
          w->results[idx] = w->results[left] + w->results[right];
        });
  }

  void rep(runtime& rt) {
    fib_workload* w = this;
    rt.run([w] { call(w, n, 0); });
  }
  std::string check() {
    std::string err = check_fib(n, results[0], sum_tallies().count);
    std::fill(results.begin(), results.end(), 0);
    return err;
  }
};

// --- futures: chains of futures broadcast to consumer groups ---------------
// Item i is a chain of `stages` futures. Stage s computes stage_value(v, s)
// in a producer vertex and completes a future; future_then_group hands the
// value to `width` consumers, each of which folds it into the checksum, and
// consumer 0 starts stage s + 1. One delivery is one item.

std::uint64_t stage_value(std::uint64_t v, std::uint64_t s) {
  return mix(v + s);
}
std::uint64_t delivery_hash(std::uint64_t v, std::uint32_t j) {
  return mix(v ^ (static_cast<std::uint64_t>(j) << 40));
}

struct futures_workload {
  static constexpr std::uint64_t chains = 1024;
  static constexpr std::uint64_t stages = 8;
  static constexpr std::uint32_t width = 16;
  std::vector<std::uint64_t> start;  // seeded first value of each chain
  std::uint64_t expected_hash = 0;

  explicit futures_workload(std::uint64_t seed) {
    for (std::uint64_t i = 0; i < chains; ++i) {
      std::uint64_t v = mix(seed * chains + i);
      start.push_back(v);
      for (std::uint64_t s = 0; s < stages; ++s) {
        v = stage_value(v, s);
        for (std::uint32_t j = 0; j < width; ++j) expected_hash += delivery_hash(v, j);
      }
    }
  }
  std::uint64_t items() const { return chains * stages * width; }

  static void stage(std::uint64_t s, std::uint64_t v) {
    future<std::uint64_t> f = future<std::uint64_t>::make();
    span_scope sp(sp_spawn);
    fork2(
        [f, s, v] {
          std::uint64_t out;
          {
            span_scope l(sp_leaf);
            out = stage_value(v, s);
          }
          span_scope c(sp_complete);
          f.complete(out, dag_engine::current_engine());
        },
        [f, s] {
          future_then_group(f, width, [s](std::uint32_t j) {
            return [s, j](std::uint64_t val) {
              {
                span_scope l(sp_leaf);
                tally_slot& t = my_tally();
                bump(t.count, 1);
                bump(t.hash, delivery_hash(val, j));
              }
              if (j == 0 && s + 1 < stages) stage(s + 1, val);
            };
          });
        });
  }

  void rep(runtime& rt) {
    const std::uint64_t* first = start.data();
    rt.run([first] {
      parallel_for(0, chains, 1,
                   [first](std::size_t i) { stage(0, first[i]); });
    });
  }
  std::string check() {
    const tally_total t = sum_tallies();
    return check_futures(t.count, items(), t.hash, expected_hash);
  }
};

// Runs one round of a throughput phase on a fresh runtime whose workers are
// confined to `cpu` (-1: not confined) and adds it to `p`: one warm-up rep,
// then measured reps until `seconds` have passed since the round began (at
// least `min_reps`). `first_rep_ns`, when set, receives the moment the first
// measured rep starts (the end of set-up).
template <typename W>
void run_round(W& w, phase& p, int cpu, double seconds, outcome& out,
               std::int64_t* first_rep_ns) {
  constexpr std::uint64_t min_reps = 2;
  const std::int64_t round_start = now_ns();
  const std::unique_ptr<runtime> owned = make_runtime(p.workers, cpu);
  runtime& rt = *owned;
  std::uint64_t reps = 0;
  auto one_rep = [&](bool measured) {
    reset_tallies();
    const std::int64_t t0 = now_ns();
    {
      span_scope s(sp_rep);
      w.rep(rt);
    }
    const std::int64_t t1 = now_ns();
    std::string err = w.check();
    if (measured) {
      out.attempted += w.items();
      p.rep_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      p.span_s += static_cast<double>(t1 - t0) / 1e9;
      ++reps;
    }
    if (!err.empty()) out.fail(err, measured ? w.items() : 0);
  };
  one_rep(false);
  if (first_rep_ns != nullptr) *first_rep_ns = now_ns();
  const layer_counts before = layer_counts::read(rt);
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  while (reps < min_reps || now_ns() - round_start < budget) one_rep(true);
  p.growth.add_growth(before, layer_counts::read(rt));
  std::vector<double> round(p.rep_ms.end() - static_cast<std::ptrdiff_t>(reps),
                            p.rep_ms.end());
  p.round_ms.push_back(median(std::move(round)));
  p.round_cpu.push_back(cpu);
  p.reps += reps;
  p.retained_mb = retained_mb(rt);
}

// --- service: open-loop traffic into a resident dag_service ----------------

constexpr std::size_t job_leaves = 64;
constexpr double low_rate = 1000;    // jobs/s, one worker
constexpr double high_rate = 10000;  // jobs/s, pmax workers

struct job_slot {
  job_record rec;
  std::atomic<std::uint64_t> acc{0};
};

std::uint64_t job_expected(std::uint64_t key) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < job_leaves; ++i) sum += mix(key + i);
  return sum;
}

struct service_phase : phase {
  std::vector<double> queue_us, exec_us, submit_ns, lag_us;
  std::uint64_t blocked = 0;
};

// One phase of open-loop traffic: a seeded Poisson schedule at `rate` jobs/s
// for `seconds`, the first `warmup` jobs unmeasured. This thread is the
// generator; it submits each job at its due time and collects tickets as
// they complete.
service_phase run_service_phase(std::size_t workers, double rate,
                                double seconds, std::uint64_t seed,
                                outcome& out, std::int64_t* first_due_ns) {
  service_phase p;
  p.workers = workers;
  p.items_per_rep = 1;
  const std::size_t warmup = static_cast<std::size_t>(rate / 10);

  std::mt19937_64 rng(mix(seed ^ static_cast<std::uint64_t>(rate)));
  std::exponential_distribution<double> gap(rate);
  std::vector<std::int64_t> offset;  // due time after the phase start
  double t = 0;
  const double horizon = seconds + static_cast<double>(warmup) / rate;
  while (true) {
    t += gap(rng);
    if (t >= horizon) break;
    offset.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  const std::size_t n = offset.size();
  auto slots = std::make_unique<job_slot[]>(n);
  for (std::size_t k = 0; k < n; ++k) {
    slots[k].rec.expected = job_expected(mix(seed + k));
  }

  service_config cfg;
  cfg.rt = default_config(workers);
  dag_service svc(cfg);
  std::deque<std::pair<std::size_t, ticket>> pending;
  auto collect = [&](bool block) {
    while (!pending.empty() && (block || pending.front().second.ready())) {
      job_slot& s = slots[pending.front().first];
      s.rec.waited_ok = pending.front().second.wait();
      s.rec.result = s.acc.load(std::memory_order_relaxed);
      pending.pop_front();
    }
  };

  layer_counts before;
  const std::int64_t t0 = now_ns() + 1000000;  // first job 1 ms out
  for (std::size_t k = 0; k < n; ++k) {
    if (k == warmup) {
      if (first_due_ns != nullptr) *first_due_ns = t0 + offset[k];
      before = layer_counts::read(svc.rt());
    }
    job_slot* js = &slots[k];
    js->rec.due_ns = t0 + offset[k];
    for (std::int64_t now = now_ns(); now < js->rec.due_ns; now = now_ns()) {
      const std::int64_t left = js->rec.due_ns - now;
      if (left > 200000) {
        collect(false);
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 150000));
      }
    }
    const std::uint64_t key = mix(seed + k);
    const std::int64_t s0 = now_ns();
    ticket tk;
    {
      span_scope s(sp_submit);
      tk = svc.submit([js, key] {
        js->rec.start_ns = now_ns();
        span_scope sp(sp_spawn);
        finish_then(
            [js, key] {
              parallel_for(0, job_leaves, 1, [js, key](std::size_t i) {
                span_scope l(sp_leaf);
                js->acc.fetch_add(mix(key + i), std::memory_order_relaxed);
              });
            },
            [js] { js->rec.done_ns = now_ns(); });
      });
    }
    js->rec.submitted_ns = now_ns();
    js->rec.ticket_valid = tk.valid();
    if (k >= warmup) {
      p.submit_ns.push_back(static_cast<double>(js->rec.submitted_ns - s0));
      p.lag_us.push_back(static_cast<double>(s0 - js->rec.due_ns) / 1e3);
    }
    if (tk.valid()) pending.emplace_back(k, std::move(tk));
  }
  collect(true);
  svc.shutdown();
  p.growth.add_growth(before, layer_counts::read(svc.rt()));
  p.retained_mb = retained_mb(svc.rt());
  const service_stats st = svc.stats();
  p.blocked = st.blocked;

  std::vector<job_record> recs;
  recs.reserve(n);
  for (std::size_t k = 0; k < n; ++k) recs.push_back(slots[k].rec);
  const std::string err =
      check_service(recs, st.submitted, st.completed, st.rejected);
  const std::uint64_t measured = n > warmup ? n - warmup : 0;
  out.attempted += measured;
  if (!err.empty()) out.fail(err, measured);

  std::int64_t last_done = 0;
  for (std::size_t k = warmup; k < n; ++k) {
    const job_record& r = recs[k];
    p.rep_ms.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
    p.queue_us.push_back(static_cast<double>(r.start_ns - r.submitted_ns) / 1e3);
    p.exec_us.push_back(static_cast<double>(r.done_ns - r.start_ns) / 1e3);
    last_done = std::max(last_done, r.done_ns);
  }
  p.reps = measured;
  if (measured > 0) {
    p.span_s = static_cast<double>(last_done - recs[warmup].due_ns) / 1e9;
  }
  return p;
}

// --- metrics ----------------------------------------------------------------

void add_latency(outcome& out, const char* suffix, std::vector<double> ms) {
  out.add(std::string("sojourn_p50_ms.") + suffix, order_stat(ms, 0.5), "ms");
  out.add(std::string("sojourn_p99_ms.") + suffix, order_stat(ms, 0.99), "ms");
}

// Per-layer metrics both kinds of traced pass share.
void add_dag_layers(outcome& out, const phase& p1, const phase& pm) {
  const std::uint64_t edges = p1.growth.edges + pm.growth.edges;
  const std::uint64_t ops = p1.growth.counter_ops + pm.growth.counter_ops;
  out.add("dag.vertices", p1.per_rep(p1.growth.vertices), "count");
  out.add("dag.counter_ops_per_edge",
          edges == 0 ? 0 : static_cast<double>(ops) / (2.0 * static_cast<double>(edges)),
          "ratio");
  out.add("dag.spawn_ns.p1", p1.spawn_ns(), "ns");
  out.add("dag.overhead_ns_per_vertex.p1", p1.overhead_ns_per_vertex(), "ns");
  out.add("dag.overhead_ns_per_vertex.pmax", pm.overhead_ns_per_vertex(), "ns");
  out.add("sched.steals.pmax", pm.per_rep(pm.growth.steals), "count");
  out.add("sched.failed_steal_sweeps.pmax",
          pm.per_rep(pm.growth.failed_steal_sweeps), "count");
  out.add("sched.parks.pmax", pm.per_rep(pm.growth.parks), "count");
  out.add("mem.slab_growths",
          static_cast<double>(p1.growth.slab_growths + pm.growth.slab_growths),
          "count");
  out.add("mem.retained_mb", pm.retained_mb, "MB");
  out.add("outset.adds", pm.per_rep(pm.growth.outset_adds), "count");
  out.add("outset.delivered", pm.per_rep(pm.growth.outset_delivered), "count");
}

void add_service_layers(outcome& out, service_phase& p) {
  out.add("service.submit_ns", order_stat(p.submit_ns, 0.5), "ns");
  out.add("service.queue_us.p50", order_stat(p.queue_us, 0.5), "us");
  out.add("service.queue_us.p99", order_stat(p.queue_us, 0.99), "us");
  out.add("service.exec_us.p50", order_stat(p.exec_us, 0.5), "us");
  out.add("service.blocked", static_cast<double>(p.blocked), "count");
  out.add("service.generator_lag_us.p99", order_stat(p.lag_us, 0.99), "us");
}

template <typename W>
void run_throughput(W& w, const options& opt, std::int64_t process_start,
                    outcome& out) {
  // The two phases alternate over several rounds, each on a fresh runtime,
  // so a slow spell of the host weighs on few of each phase's reps. The
  // 1-worker rounds confine their worker to each usable CPU in turn: on a
  // shared host one CPU can run a third slower than another for seconds at
  // a time, and items_per_s then takes the fastest CPU.
  constexpr int rounds = 16;
  const std::vector<int> cpus = usable_cpu_ids();
  const std::size_t pmax = usable_cpus();
  // Untraced: each phase gets half the run. Traced: the pass gets half,
  // the replays and the service probe share the rest.
  const double round_s = opt.seconds * (opt.trace ? 0.25 : 0.5) / rounds;
  phase p1, pm;
  p1.workers = 1;
  pm.workers = pmax;
  p1.items_per_rep = pm.items_per_rep = w.items();
  std::int64_t first_rep = 0;
  for (int r = 0; r < rounds; ++r) {
    const int cpu = cpus.empty() ? -1 : cpus[static_cast<std::size_t>(r) % cpus.size()];
    run_round(w, p1, cpu, round_s, out, r == 0 ? &first_rep : nullptr);
    run_round(w, pm, -1, round_s, out, nullptr);
  }
  const double setup_s = static_cast<double>(first_rep - process_start) / 1e9;
  if (!opt.trace) {
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("items_per_s.p1", p1.items_per_s(), "items/s");
    out.add("items_per_s.pmax", pm.items_per_s(), "items/s");
    return;
  }
  std::fprintf(stderr, "# traced pass: items_per_s.p1=%.6g items_per_s.pmax=%.6g\n",
               p1.items_per_s(), pm.items_per_s());
  add_dag_layers(out, p1, pm);
  service_phase probe = run_service_phase(
      pmax > 2 ? pmax - 2 : 1, high_rate, opt.seconds * 0.2, opt.seed, out, nullptr);
  add_service_layers(out, probe);
}

void run_service(const options& opt, std::int64_t process_start, outcome& out) {
  const std::size_t cpus = usable_cpus();
  const std::size_t pmax = cpus > 2 ? cpus - 2 : 1;
  const double share = opt.trace ? 0.3 : 0.5;
  std::int64_t first_due = 0;
  service_phase lo = run_service_phase(1, low_rate, opt.seconds * share,
                                       opt.seed, out, &first_due);
  const double setup_s = static_cast<double>(first_due - process_start) / 1e9;
  service_phase hi = run_service_phase(pmax, high_rate, opt.seconds * share,
                                       opt.seed + 1, out, nullptr);
  if (!opt.trace) {
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("items_per_s.p1", static_cast<double>(lo.reps) / lo.span_s, "items/s");
    out.add("items_per_s.pmax", static_cast<double>(hi.reps) / hi.span_s, "items/s");
    add_latency(out, "p1", lo.rep_ms);
    add_latency(out, "pmax", hi.rep_ms);
    return;
  }
  add_dag_layers(out, lo, hi);
  add_service_layers(out, hi);
}

}  // namespace

outcome run_workload(const options& opt, std::int64_t process_start_ns) {
  outcome out;
  g_tracing.store(opt.trace, std::memory_order_relaxed);
  if (opt.workload == "fanin") {
    fanin_workload w(opt.seed);
    run_throughput(w, opt, process_start_ns, out);
  } else if (opt.workload == "fib") {
    fib_workload w;
    run_throughput(w, opt, process_start_ns, out);
  } else if (opt.workload == "futures") {
    futures_workload w(opt.seed);
    run_throughput(w, opt, process_start_ns, out);
  } else {
    run_service(opt, process_start_ns, out);
  }
  if (opt.trace) run_replays(opt.seconds * 0.25, usable_cpus(), opt.seed, out);
  g_tracing.store(false, std::memory_order_relaxed);
  return out;
}

}  // namespace perfbench
