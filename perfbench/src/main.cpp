// pochoir_perfbench — the repository benchmark.
//
//   pochoir_perfbench --workload heat2p-large|lcs-long|life-batch
//                     --seed N --seconds S --trace 0|1 --ckpt-dir DIR
//
// Prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  perfbench/run.py builds
// this program and is the command to run.
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  args.main_entry = perfbench::Clock::now();
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: pochoir_perfbench --workload heat2p-large|lcs-long|life-batch "
                 "--seed N --seconds S --trace 0|1 --ckpt-dir DIR\n");
    return 2;
  };
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--ckpt-dir") {
      args.ckpt_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.ckpt_dir.empty() || !(args.seconds > 0)) return usage();

  perfbench::Result res;
  int rc = 0;
  if (args.workload == "heat2p-large") {
    rc = perfbench::run_heat2p_large(args, res);
  } else if (args.workload == "lcs-long") {
    rc = perfbench::run_lcs_long(args, res);
  } else if (args.workload == "life-batch") {
    rc = perfbench::run_life_batch(args, res);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return usage();
  }
  if (rc != 0) return rc;
  res.print(stdout);
  return 0;
}
