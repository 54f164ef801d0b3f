// ldpbench: the repository benchmark's binary. run.py orchestrates
// it; each subcommand can also be run by hand:
//
//   ldpbench serve    --workload W --seconds T [--smoke] [--trace 1 --trace-out F]
//   ldpbench gen      --workload W --port P --seed S --seconds T --trace 0|1
//                     --out RESULT.json [--smoke] [--corrupt GATE] [--spans F]
//   ldpbench simulate --seed S --seconds T --trace 0|1 --out RESULT.json
//                     [--smoke] [--corrupt GATE] [--spans F]

#include <cstdio>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: ldpbench serve|gen|simulate --flag value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const ldpbench::Args args(argc, argv, 2);
  if (cmd == "serve") return ldpbench::RunServe(args);
  if (cmd == "simulate") return ldpbench::RunSimulate(args);
  if (cmd == "gen") {
    const std::string workload = args.Str("workload", "");
    if (workload == "ingest_wire") return ldpbench::RunIngestWire(args);
    if (workload == "serve_mixed") return ldpbench::RunServeMixed(args);
  }
  std::fprintf(stderr, "ldpbench: unknown command or workload\n");
  return 2;
}
