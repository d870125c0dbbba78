// The bpntt benchmark program: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints a table of metrics (name, value, unit, clock) and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any output was wrong or any op failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <ntt-batch-sram|he-mul-sram|"
               "service-open-cpu> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--out") {
      o.out_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0.0 || o.seconds > 60.0) return usage(argv[0]);

  perfbench::report rep;
  try {
    if (o.workload == "ntt-batch-sram") {
      perfbench::run_ntt_batch_sram(o, rep);
    } else if (o.workload == "he-mul-sram") {
      perfbench::run_he_mul_sram(o, rep);
    } else if (o.workload == "service-open-cpu") {
      perfbench::run_service_open_cpu(o, rep);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  rep.print();
  return rep.correct() && rep.failed == 0 ? 0 : 1;
}
