// Layer replays for the traced run. Some layers can only be timed in
// isolation: these phases drive a layer's own factory — the "dyn" counter
// factory, the "pool" registry, the "simple" out-set factory — with the
// operation mix a workload puts on it, from 1 and from pmax threads. Each
// phase repeats whole rounds until its time share is spent and reports the
// median round. Every round checks the layer's own conservation law.

#include <algorithm>
#include <barrier>
#include <memory>
#include <random>
#include <thread>

#include "dag/vertex.hpp"
#include "incounter/factory.hpp"
#include "mem/registry.hpp"
#include "outset/factory.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace spdag;

namespace {

constexpr int min_rounds = 3;

// Runs body(tid) on `threads` threads that start together; returns the
// summed per-thread time body reports.
template <typename F>
std::int64_t team(std::size_t threads, F body) {
  std::vector<std::int64_t> ns(threads, 0);
  std::barrier start(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> ts;
  for (std::size_t t = 1; t < threads; ++t) {
    ts.emplace_back([&, t] {
      start.arrive_and_wait();
      ns[t] = body(t);
    });
  }
  start.arrive_and_wait();
  ns[0] = body(0);
  for (auto& th : ts) th.join();
  std::int64_t sum = 0;
  for (std::int64_t v : ns) sum += v;
  return sum;
}

// Repeats round() (returning ns per operation) until `seconds` are spent.
template <typename R>
double median_round(double seconds, R round) {
  std::vector<double> per_op;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  while (per_op.size() < min_rounds || now_ns() - start < budget) {
    per_op.push_back(round());
  }
  return order_stat(per_op, 0.5);
}

// counter.fanin_pair_ns: every thread arrives and departs on ONE in-counter,
// as fan-in leaves do. Each path descends `depth` arrives from the root
// handle (the spawn spine of one leaf), then departs them in reverse; the
// counter's initial unit is held throughout, so no depart may report zero,
// and the final depart of that unit must.
double counter_pairs(counter_factory& f, std::size_t threads,
                     std::uint64_t seed, double seconds, outcome& out) {
  constexpr int depth = 20;
  constexpr int paths = 500;
  return median_round(seconds, [&] {
    dep_counter* c = f.acquire(1);
    const token root = c->root_token();
    std::atomic<std::uint64_t> early_zero{0};
    const std::int64_t ns = team(threads, [&](std::size_t tid) {
      std::mt19937_64 rng(mix(seed + tid));
      token decs[depth];
      const std::int64_t t0 = now_ns();
      for (int p = 0; p < paths; ++p) {
        token h = root;
        bool left = (rng() & 1) != 0;
        for (int d = 0; d < depth; ++d) {
          const arrive_result r = c->arrive(h, left);
          decs[d] = r.dec;
          left = (rng() & 1) != 0;
          h = left ? r.inc_left : r.inc_right;
        }
        for (int d = depth - 1; d >= 0; --d) {
          if (c->depart(decs[d])) early_zero.fetch_add(1);
        }
      }
      const std::int64_t t1 = now_ns();
      record_span(sp_counter_pair, t0, t1);
      return t1 - t0;
    });
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(threads) * paths * depth;
    out.attempted += pairs;
    if (early_zero.load() != 0 || !c->depart(root)) {
      out.fail("counter replay: zero not signalled exactly once", pairs);
    }
    f.release(c);
    return static_cast<double>(ns) / static_cast<double>(pairs);
  });
}

// counter.cycle_ns: the life of a fib call's finish counter — acquire with
// the initial unit, one arrive (the spawn), two departs (the two children),
// release. Exactly the second depart must report zero.
double counter_cycles(counter_factory& f, std::size_t threads, double seconds,
                      outcome& out) {
  constexpr int cycles = 20000;
  return median_round(seconds, [&] {
    std::atomic<std::uint64_t> bad{0};
    const std::int64_t ns = team(threads, [&](std::size_t) {
      std::uint64_t wrong = 0;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < cycles; ++i) {
        dep_counter* c = f.acquire(1);
        const token root = c->root_token();
        const arrive_result r = c->arrive(root, true);
        const bool z1 = c->depart(r.dec);
        const bool z2 = c->depart(root);
        wrong += (z1 || !z2) ? 1 : 0;
        f.release(c);
      }
      const std::int64_t t1 = now_ns();
      record_span(sp_counter_cycle, t0, t1);
      bad.fetch_add(wrong);
      return t1 - t0;
    });
    const std::uint64_t total = static_cast<std::uint64_t>(threads) * cycles;
    out.attempted += total;
    if (bad.load() != 0) {
      out.fail("counter replay: a cycle did not signal zero exactly once",
               bad.load());
    }
    return static_cast<double>(ns) / static_cast<double>(total);
  });
}

// mem.alloc_free_ns: vertex-sized cells. Each thread allocates a batch, then
// frees three quarters of its own cells and a quarter of its neighbour's,
// so at pmax a share of frees crosses threads as it does when a stolen
// vertex is recycled by its thief.
double alloc_free(object_pool& pool, std::size_t threads, double seconds,
                  outcome& out) {
  constexpr std::size_t batch = 4096;
  std::vector<std::vector<void*>> cells(threads, std::vector<void*>(batch));
  return median_round(seconds, [&] {
    std::barrier mid(static_cast<std::ptrdiff_t>(threads));
    const std::int64_t ns = team(threads, [&](std::size_t tid) {
      std::vector<void*>& mine = cells[tid];
      std::vector<void*>& next = cells[(tid + 1) % threads];
      std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < batch; ++i) mine[i] = pool.allocate();
      std::int64_t t1 = now_ns();
      record_span(sp_mem, t0, t1);
      std::int64_t spent = t1 - t0;
      mid.arrive_and_wait();
      const std::size_t own = threads == 1 ? batch : batch - batch / 4;
      t0 = now_ns();
      for (std::size_t i = 0; i < own; ++i) pool.deallocate(mine[i]);
      for (std::size_t i = own; i < batch; ++i) pool.deallocate(next[i]);
      t1 = now_ns();
      record_span(sp_mem, t0, t1);
      return spent + (t1 - t0);
    });
    const std::uint64_t pairs = static_cast<std::uint64_t>(threads) * batch;
    out.attempted += pairs;
    return static_cast<double>(ns) / static_cast<double>(pairs);
  });
}

// outset.add_ns / outset.finalize_ns_per_waiter: pmax threads register
// waiters on ONE out-set (one future's consumers arriving from every
// worker), then one finalize delivers them. Every waiter must be delivered
// exactly once. Consumers are encoded indices the out-set never
// dereferences.
struct finalize_sink {
  outset_factory* f;
  std::vector<std::uint8_t>* seen;
  std::uint64_t bad = 0;

  static void deliver(void* ctx, outset_waiter* w) {
    auto* self = static_cast<finalize_sink*>(ctx);
    const std::uintptr_t idx = reinterpret_cast<std::uintptr_t>(w->consumer) >> 4;
    if (idx == 0 || idx > self->seen->size() || (*self->seen)[idx - 1]++ != 0) {
      ++self->bad;
    }
    self->f->release_waiter(w);
  }
};

void outset_replay(outset_factory& f, std::size_t threads, double seconds,
                   outcome& out) {
  constexpr std::size_t per_thread = 256;
  const std::size_t total = threads * per_thread;
  std::vector<double> finalize_ns;
  std::vector<std::vector<outset_waiter*>> ws(
      threads, std::vector<outset_waiter*>(per_thread));
  std::vector<std::uint8_t> seen(total);
  const double add_ns = median_round(seconds, [&] {
    outset* o = f.acquire();
    for (std::size_t t = 0; t < threads; ++t) {
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::uintptr_t idx = t * per_thread + i + 1;
        ws[t][i] = f.acquire_waiter(reinterpret_cast<vertex*>(idx << 4), nullptr);
      }
    }
    std::atomic<std::uint64_t> rejected{0};
    const std::int64_t ns = team(threads, [&](std::size_t tid) {
      std::uint64_t lost = 0;
      const std::int64_t t0 = now_ns();
      for (outset_waiter* w : ws[tid]) lost += o->add(w) ? 0 : 1;
      const std::int64_t t1 = now_ns();
      record_span(sp_outset_add, t0, t1);
      rejected.fetch_add(lost);
      return t1 - t0;
    });
    std::fill(seen.begin(), seen.end(), 0);
    finalize_sink sink{&f, &seen};
    const std::int64_t t0 = now_ns();
    o->finalize(&finalize_sink::deliver, &sink);
    const std::int64_t t1 = now_ns();
    record_span(sp_outset_final, t0, t1);
    finalize_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(total));
    f.release(o);
    std::uint64_t missing = 0;
    for (std::uint8_t s : seen) missing += s == 1 ? 0 : 1;
    out.attempted += total;
    if (rejected.load() != 0 || sink.bad != 0 || missing != 0) {
      out.fail("outset replay: a waiter was not delivered exactly once", total);
    }
    return static_cast<double>(ns) / static_cast<double>(total);
  });
  out.add("outset.add_ns.pmax", add_ns, "ns");
  out.add("outset.finalize_ns_per_waiter", order_stat(finalize_ns, 0.5), "ns");
}

}  // namespace

void run_replays(double seconds, std::size_t pmax, std::uint64_t seed,
                 outcome& out) {
  const double each = seconds / 7;
  std::unique_ptr<pool_registry> pools = make_pool_registry("pool");
  {
    std::unique_ptr<counter_factory> f =
        make_counter_factory("dyn", nullptr, pools.get());
    out.add("counter.fanin_pair_ns.p1", counter_pairs(*f, 1, seed, each, out), "ns");
    out.add("counter.fanin_pair_ns.pmax", counter_pairs(*f, pmax, seed, each, out),
            "ns");
    out.add("counter.cycle_ns.p1", counter_cycles(*f, 1, each, out), "ns");
    out.add("counter.cycle_ns.pmax", counter_cycles(*f, pmax, each, out), "ns");
  }
  object_pool& cells = pools->get("perfbench.vertex", sizeof(vertex), alignof(vertex));
  out.add("mem.alloc_free_ns.p1", alloc_free(cells, 1, each, out), "ns");
  out.add("mem.alloc_free_ns.pmax", alloc_free(cells, pmax, each, out), "ns");
  const pool_stats ps = cells.stats();
  if (ps.allocs != ps.frees) {
    out.fail("mem replay: allocations " + std::to_string(ps.allocs) +
                 " but frees " + std::to_string(ps.frees),
             ps.allocs - ps.frees);
  }
  std::unique_ptr<outset_factory> outsets = make_outset_factory("simple", pools.get());
  outset_replay(*outsets, pmax, each, out);
}

}  // namespace perfbench
