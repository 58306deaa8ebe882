// perfbench: one workload per process.
//
//   perfbench --workload fanin|fib|futures|service --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write their spans to PATH. The last stdout line is
// the result object; the exit code is nonzero when any check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               why);
  return 2;
}

bool known_workload(const std::string& w) {
  for (const char* const* n = perfbench::workload_names; *n != nullptr; ++n) {
    if (w == *n) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = perfbench::now_ns();
  perfbench::options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 120) {
        return usage("--seconds takes a number in (0, 120]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = v[0] == '1';
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!known_workload(opt.workload)) return usage("unknown or missing --workload");

  perfbench::outcome out = perfbench::run_workload(opt, process_start);
  for (perfbench::metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail(m.name + " is not finite", 0);
  }
  if (opt.trace && !opt.spans_path.empty() &&
      !perfbench::write_spans(opt.spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", opt.spans_path.c_str());
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", perfbench::result_json(out).c_str());
  return out.errors.empty() ? 0 : 1;
}
