// Self-tests of the benchmark's own code: every correctness check must
// reject a wrong output (a wrong fib value, a dropped leaf, a miscounted
// delivery, a missing ticket, ...) and accept the right one, and the order
// statistics must give the known answers on known samples.
//
//   perfbench_selftest        exit 0 when every case passes

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void rejects(const std::string& err, const char* what) {
  expect(!err.empty(), what);
}

void accepts(const std::string& err, const char* what) {
  if (!err.empty()) std::fprintf(stderr, "  (%s)\n", err.c_str());
  expect(err.empty(), what);
}

void test_order_stats() {
  using perfbench::order_stat;
  std::vector<double> one{7};
  expect(order_stat(one, 0.5) == 7 && order_stat(one, 0.99) == 7, "single sample");
  std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  expect(order_stat(ten, 0.5) == 5, "median of 1..10 is the 5th value");
  expect(order_stat(ten, 0.9) == 9, "p90 of 1..10 is 9");
  expect(order_stat(ten, 0.99) == 10, "p99 of 1..10 is the maximum");
  expect(order_stat(ten, 1.0) == 10, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(order_stat(hundred, 0.5) == 50, "median of 1..100");
  expect(order_stat(hundred, 0.99) == 99, "p99 of 1..100");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect(order_stat(thousand, 0.99) == 990, "p99 of 1..1000");
  std::vector<double> odd{3, 1, 2};
  expect(order_stat(odd, 0.5) == 2, "median of three");
}

void test_fanin() {
  using perfbench::check_fanin;
  using perfbench::mix;
  const std::uint64_t n = 1000;
  const std::uint64_t key = 42;
  std::uint64_t hash = 0;
  for (std::uint64_t i = 0; i < n; ++i) hash += mix(key ^ i);
  std::vector<std::uint8_t> ran(n, 1);
  const std::uint64_t isum = n * (n - 1) / 2;
  accepts(check_fanin(ran, n, isum, hash, hash), "fanin accepts a full run");
  ran[17] = 0;
  rejects(check_fanin(ran, n - 1, isum - 17, hash - mix(key ^ 17), hash),
          "fanin rejects a dropped leaf");
  ran[17] = 2;
  rejects(check_fanin(ran, n + 1, isum + 17, hash + mix(key ^ 17), hash),
          "fanin rejects a leaf run twice");
  ran[17] = 1;
  rejects(check_fanin(ran, n, isum + 1, hash, hash), "fanin rejects a wrong index sum");
  rejects(check_fanin(ran, n, isum, hash + 1, hash), "fanin rejects a wrong checksum");
  rejects(check_fanin(ran, n - 1, isum, hash, hash), "fanin rejects a lost tally");
}

void test_fib() {
  using perfbench::check_fib;
  expect(perfbench::fib_iterative(25) == 75025, "fib(25) = 75025");
  expect(perfbench::fib_calls(25) == 242785, "fib(25) makes 242785 calls");
  expect(perfbench::fib_calls(1) == 1 && perfbench::fib_calls(2) == 3, "small call counts");
  accepts(check_fib(25, 75025, 242785), "fib accepts the right value");
  rejects(check_fib(25, 75024, 242785), "fib rejects a wrong value");
  rejects(check_fib(25, 75025, 242784), "fib rejects a missing call");
}

void test_futures() {
  using perfbench::check_futures;
  accepts(check_futures(1000, 1000, 77, 77), "futures accepts the right fold");
  rejects(check_futures(999, 1000, 77, 77), "futures rejects a missed delivery");
  rejects(check_futures(1001, 1000, 77, 77), "futures rejects a doubled delivery");
  rejects(check_futures(1000, 1000, 78, 77), "futures rejects a wrong checksum");
}

void test_service() {
  using perfbench::check_service;
  using perfbench::job_record;
  auto good = [] {
    std::vector<job_record> jobs(3);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      job_record& j = jobs[i];
      j.due_ns = 1000 * (static_cast<std::int64_t>(i) + 1);
      j.submitted_ns = j.due_ns + 10;
      j.start_ns = j.due_ns + 50;
      j.done_ns = j.due_ns + 500;
      j.result = j.expected = 99 + i;
      j.ticket_valid = j.waited_ok = true;
    }
    return jobs;
  };
  std::vector<job_record> jobs = good();
  accepts(check_service(jobs, 3, 3, 0), "service accepts a clean run");
  jobs[1].ticket_valid = false;
  rejects(check_service(jobs, 3, 3, 0), "service rejects a missing ticket");
  jobs = good();
  jobs[2].waited_ok = false;
  rejects(check_service(jobs, 3, 3, 0), "service rejects a failed wait");
  jobs = good();
  jobs[0].result += 1;
  rejects(check_service(jobs, 3, 3, 0), "service rejects a wrong job result");
  jobs = good();
  jobs[0].start_ns = jobs[0].due_ns - 5;
  rejects(check_service(jobs, 3, 3, 0), "service rejects sojourn < execution");
  jobs = good();
  rejects(check_service(jobs, 3, 2, 0), "service rejects submitted != completed");
  rejects(check_service(jobs, 4, 4, 0), "service rejects a job it never saw");
  rejects(check_service(jobs, 3, 3, 1), "service rejects a rejection");
}

}  // namespace

int main() {
  test_order_stats();
  test_fanin();
  test_fib();
  test_futures();
  test_service();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
