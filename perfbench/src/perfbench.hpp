#pragma once
// perfbench: shared pieces of the benchmark — clock, seeded mixing, exact
// order statistics, per-thread tallies, the benchmark's own spans, the
// correctness checks, and the entry points main() and the self-test call.
//
// Everything here lives outside the library and drives it only through its
// user-facing API (runtime, fork2, finish_then, parallel_for, futures,
// dag_service) and the public factories and stats accessors.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64 finalizer: the pure function every workload derives its inputs
// and checksums from.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// CPUs this process may run on: their ids, and how many (what `nproc`
// prints, at least 1).
std::vector<int> usable_cpu_ids();
std::size_t usable_cpus();

// --- exact order statistics -------------------------------------------------

// Nearest-rank quantile of a sample: the smallest value with at least a
// fraction p of the sample at or below it (p in (0, 1]). The sample is sorted
// in place. Requires a non-empty sample.
double order_stat(std::vector<double>& sample, double p);

// --- per-thread tallies -----------------------------------------------------

// One cache line of counters per thread. Only the owning thread writes its
// slot (load + store, no read-modify-write); the main thread sums and resets
// them while the runtime is quiescent.
struct alignas(64) tally_slot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> hash{0};
};

tally_slot& my_tally() noexcept;

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t v) noexcept {
  c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

struct tally_total {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t hash = 0;
};
tally_total sum_tallies();
void reset_tallies();

// --- spans ------------------------------------------------------------------

// The benchmark's own spans, recorded around its calls into the library when
// tracing is on (the traced run only). Each thread keeps per-kind totals and
// a ring of its latest events; write_spans() exports them at the end.
enum span_kind : int {
  sp_rep,           // one whole dag: runtime::run, or one service job
  sp_spawn,         // a fork2 / finish_then call
  sp_leaf,          // a leaf body (the workload's own work)
  sp_complete,      // future::complete
  sp_submit,        // dag_service::submit
  sp_counter_pair,  // replay: one timed block of arrive+depart pairs
  sp_counter_cycle, // replay: one timed block of counter life cycles
  sp_mem,           // replay: one timed block of pool alloc / free
  sp_outset_add,    // replay: one timed block of out-set adds
  sp_outset_final,  // replay: one out-set finalize
  n_span_kinds
};

extern std::atomic<bool> g_tracing;

inline bool tracing() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void record_span(span_kind k, std::int64_t start_ns, std::int64_t end_ns);

struct span_totals {
  std::uint64_t ns[n_span_kinds] = {};
  std::uint64_t count[n_span_kinds] = {};
};
span_totals sum_spans();

// Writes every thread's retained events (Chrome trace-event JSON) plus the
// per-kind totals. Call once every thread that recorded has been joined.
bool write_spans(const std::string& path);

// Scoped span: free when tracing is off (one relaxed load).
class span_scope {
 public:
  explicit span_scope(span_kind k) noexcept
      : kind_(k), start_(tracing() ? now_ns() : 0) {}
  ~span_scope() {
    if (start_ != 0) record_span(kind_, start_, now_ns());
  }
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

 private:
  span_kind kind_;
  std::int64_t start_;
};

// --- correctness checks -----------------------------------------------------
// Each returns the empty string when the outputs are right, else what is
// wrong. None of them consults the runtime: expectations are recomputed here.

std::uint64_t fib_iterative(unsigned n);
// Calls made by the doubly recursive fib(n): 2 * fib(n + 1) - 1.
std::uint64_t fib_calls(unsigned n);

std::string check_fanin(const std::vector<std::uint8_t>& ran_count,
                        std::uint64_t leaves_tallied, std::uint64_t index_sum,
                        std::uint64_t hash_sum, std::uint64_t expected_hash);
std::string check_fib(unsigned n, std::uint64_t root, std::uint64_t calls);
std::string check_futures(std::uint64_t deliveries,
                          std::uint64_t expected_deliveries,
                          std::uint64_t checksum,
                          std::uint64_t expected_checksum);

// One service job as the benchmark saw it.
struct job_record {
  std::int64_t due_ns = 0;        // when the generator was due to submit it
  std::int64_t submitted_ns = 0;  // when submit() returned
  std::int64_t start_ns = 0;      // root body started
  std::int64_t done_ns = 0;       // the job's own finish_then continuation
  std::uint64_t result = 0;       // the job's computed value
  std::uint64_t expected = 0;     // the same value computed serially
  bool ticket_valid = false;
  bool waited_ok = false;
};
// Also checks submitted == completed with nothing rejected, as reported by
// the service's own stats.
std::string check_service(const std::vector<job_record>& jobs,
                          std::uint64_t submitted, std::uint64_t completed,
                          std::uint64_t rejected);

// --- the benchmark ----------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<std::string> errors;  // failed checks, in order

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string what, std::uint64_t items) {
    errors.push_back(std::move(what));
    failed += items;
  }
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced run: where write_spans() goes
};

extern const char* const workload_names[];  // null-terminated

// Runs one workload (untraced: end-to-end metrics; traced: per-layer
// metrics). `process_start_ns` anchors setup_s.
outcome run_workload(const options& opt, std::int64_t process_start_ns);

// Layer replays for the traced run: drive the counter, pool and out-set
// factories directly in the workloads' shapes and add their per-layer
// metrics. Failed replay checks land in `out` like any other.
void run_replays(double seconds, std::size_t pmax, std::uint64_t seed,
                 outcome& out);

// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const outcome& o);

}  // namespace perfbench
