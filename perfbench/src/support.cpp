// Clock-free helpers of the benchmark: order statistics, per-thread tallies,
// span recording and export, the correctness checks and the result line.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {

std::vector<int> usable_cpu_ids() {
  std::vector<int> ids;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) ids.push_back(c);
    }
  }
  return ids;
}

std::size_t usable_cpus() { return std::max<std::size_t>(1, usable_cpu_ids().size()); }

double order_stat(std::vector<double>& sample, double p) {
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > sample.size()) rank = sample.size();
  return sample[rank - 1];
}

// --- tallies ----------------------------------------------------------------

namespace {

// Threads over the whole process (every runtime's workers, replay threads,
// the generator and dispatcher) stay far below this.
constexpr int max_threads = 4096;
tally_slot g_tallies[max_threads];
std::atomic<int> g_next_thread{0};

int thread_index() noexcept {
  thread_local const int idx = g_next_thread.fetch_add(1);
  if (idx >= max_threads) {
    std::fprintf(stderr, "perfbench: more than %d threads\n", max_threads);
    std::abort();
  }
  return idx;
}

}  // namespace

tally_slot& my_tally() noexcept { return g_tallies[thread_index()]; }

tally_total sum_tallies() {
  tally_total t;
  const int n = std::min(g_next_thread.load(), max_threads);
  for (int i = 0; i < n; ++i) {
    t.count += g_tallies[i].count.load(std::memory_order_relaxed);
    t.sum += g_tallies[i].sum.load(std::memory_order_relaxed);
    t.hash += g_tallies[i].hash.load(std::memory_order_relaxed);
  }
  return t;
}

void reset_tallies() {
  for (auto& s : g_tallies) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.hash.store(0, std::memory_order_relaxed);
  }
}

// --- spans ------------------------------------------------------------------

std::atomic<bool> g_tracing{false};

namespace {

const char* const span_names[n_span_kinds] = {
    "rep",           "dag.spawn",     "leaf",       "future.complete",
    "service.submit", "counter.pairs", "counter.cycles", "mem.alloc_free",
    "outset.add",    "outset.finalize"};

struct span_event {
  std::int64_t start;
  std::int64_t end;
  int kind;
};

// Latest events kept per thread for the export (totals cover every span).
constexpr std::size_t ring_cap = 4096;

struct alignas(64) span_log {
  std::atomic<std::uint64_t> ns[n_span_kinds] = {};
  std::atomic<std::uint64_t> count[n_span_kinds] = {};
  std::vector<span_event> ring;
  std::uint64_t written = 0;
  int tid = 0;
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<span_log>> g_logs;  // guarded by g_logs_mu

span_log& my_log() {
  thread_local span_log* log = [] {
    auto l = std::make_unique<span_log>();
    l->ring.resize(ring_cap);
    std::lock_guard<std::mutex> g(g_logs_mu);
    l->tid = static_cast<int>(g_logs.size());
    g_logs.push_back(std::move(l));
    return g_logs.back().get();
  }();
  return *log;
}

}  // namespace

void record_span(span_kind k, std::int64_t start_ns, std::int64_t end_ns) {
  span_log& l = my_log();
  bump(l.ns[k], static_cast<std::uint64_t>(end_ns - start_ns));
  bump(l.count[k], 1);
  l.ring[l.written % ring_cap] = {start_ns, end_ns, k};
  ++l.written;
}

span_totals sum_spans() {
  span_totals t;
  std::lock_guard<std::mutex> g(g_logs_mu);
  for (const auto& l : g_logs) {
    for (int k = 0; k < n_span_kinds; ++k) {
      t.ns[k] += l->ns[k].load(std::memory_order_relaxed);
      t.count[k] += l->count[k].load(std::memory_order_relaxed);
    }
  }
  return t;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> g(g_logs_mu);
  std::int64_t t0 = 0;
  for (const auto& l : g_logs) {
    const std::size_t n = std::min<std::uint64_t>(l->written, ring_cap);
    for (std::size_t i = 0; i < n; ++i) {
      if (t0 == 0 || l->ring[i].start < t0) t0 = l->ring[i].start;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& l : g_logs) {
    const std::size_t n = std::min<std::uint64_t>(l->written, ring_cap);
    for (std::size_t i = 0; i < n; ++i) {
      const span_event& e = l->ring[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",", span_names[e.kind], l->tid,
                   static_cast<double>(e.start - t0) / 1e3,
                   static_cast<double>(e.end - e.start) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n],\"totals\":{");
  span_totals t;
  for (const auto& l : g_logs) {
    for (int k = 0; k < n_span_kinds; ++k) {
      t.ns[k] += l->ns[k].load(std::memory_order_relaxed);
      t.count[k] += l->count[k].load(std::memory_order_relaxed);
    }
  }
  for (int k = 0; k < n_span_kinds; ++k) {
    std::fprintf(f, "%s\"%s\":{\"count\":%llu,\"ns\":%llu}", k ? "," : "",
                 span_names[k], static_cast<unsigned long long>(t.count[k]),
                 static_cast<unsigned long long>(t.ns[k]));
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// --- checks -----------------------------------------------------------------

std::uint64_t fib_iterative(unsigned n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  return a;
}

std::uint64_t fib_calls(unsigned n) { return 2 * fib_iterative(n + 1) - 1; }

namespace {

std::string describe(const char* what, std::uint64_t got, std::uint64_t want) {
  std::ostringstream os;
  os << what << ": got " << got << ", want " << want;
  return os.str();
}

}  // namespace

std::string check_fanin(const std::vector<std::uint8_t>& ran_count,
                        std::uint64_t leaves_tallied, std::uint64_t index_sum,
                        std::uint64_t hash_sum, std::uint64_t expected_hash) {
  const std::uint64_t n = ran_count.size();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (ran_count[i] != 1) {
      return describe("fanin: runs of leaf", ran_count[i], 1) + " (leaf " +
             std::to_string(i) + ")";
    }
  }
  if (leaves_tallied != n) return describe("fanin: leaves run", leaves_tallied, n);
  const std::uint64_t want = n == 0 ? 0 : n * (n - 1) / 2;
  if (index_sum != want) return describe("fanin: index sum", index_sum, want);
  if (hash_sum != expected_hash) {
    return describe("fanin: leaf checksum", hash_sum, expected_hash);
  }
  return {};
}

std::string check_fib(unsigned n, std::uint64_t root, std::uint64_t calls) {
  if (root != fib_iterative(n)) {
    return describe("fib: root value", root, fib_iterative(n));
  }
  if (calls != fib_calls(n)) return describe("fib: calls", calls, fib_calls(n));
  return {};
}

std::string check_futures(std::uint64_t deliveries,
                          std::uint64_t expected_deliveries,
                          std::uint64_t checksum,
                          std::uint64_t expected_checksum) {
  if (deliveries != expected_deliveries) {
    return describe("futures: deliveries", deliveries, expected_deliveries);
  }
  if (checksum != expected_checksum) {
    return describe("futures: checksum", checksum, expected_checksum);
  }
  return {};
}

std::string check_service(const std::vector<job_record>& jobs,
                          std::uint64_t submitted, std::uint64_t completed,
                          std::uint64_t rejected) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const job_record& j = jobs[i];
    const std::string at = " (job " + std::to_string(i) + ")";
    if (!j.ticket_valid) return "service: invalid ticket" + at;
    if (!j.waited_ok) return "service: wait() returned false" + at;
    if (j.result != j.expected) {
      return describe("service: job result", j.result, j.expected) + at;
    }
    if (j.done_ns - j.due_ns < j.done_ns - j.start_ns || j.start_ns == 0 ||
        j.done_ns < j.start_ns) {
      return "service: sojourn shorter than execution time" + at;
    }
  }
  if (submitted != jobs.size()) {
    return describe("service: submitted", submitted, jobs.size());
  }
  if (completed != submitted) {
    return describe("service: completed", completed, submitted);
  }
  if (rejected != 0) return describe("service: rejected", rejected, 0);
  return {};
}

// --- result line ------------------------------------------------------------

std::string result_json(const outcome& o) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (o.errors.empty() ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const metric& m = o.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : -1.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
