// The service process of the served workloads: an AggregatorService with
// the workload's pre-created servers behind a loopback TcpFrontEnd. It
// prints one READY line (port, set-up time), serves until its standard
// input closes, then prints one DONE line with its peak RSS.

#include <unistd.h>

#include <cstdio>
#include <memory>

#include "net/tcp_front_end.h"
#include "obs/trace.h"
#include "service/aggregator_service.h"
#include "workloads.h"

namespace ldpbench {

int RunServe(const Args& args) {
  const WorkloadConfig c = MakeConfig(args.Str("workload", ""),
                                      args.F64("seconds", 10.0),
                                      args.Has("smoke"));
  if (c.layout.empty()) {
    std::fprintf(stderr, "ldpbench serve: unknown --workload\n");
    return 2;
  }
  // Set-up is building the hosted server set; it is repeated and the
  // median reported, the last build is the one served.
  std::vector<double> setup_s;
  std::unique_ptr<ldp::service::AggregatorService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const uint64_t t0 = NowNs();
    svc = std::make_unique<ldp::service::AggregatorService>(c.workers);
    for (const auto& spec : c.layout) {
      svc->AddServer(ldp::service::MakeAggregatorServer(spec));
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  ldp::net::TcpFrontEnd front(*svc);
  if (!front.Start()) {
    std::perror("ldpbench serve: TcpFrontEnd::Start");
    return 1;
  }
  const bool trace = args.U64("trace", 0) != 0;
  if (trace) ldp::obs::StartTracing();
  std::printf("READY port=%u setup_s=%.9f pid=%d\n", front.port(),
              Median(setup_s), static_cast<int>(getpid()));
  std::fflush(stdout);

  // Serve until run.py closes our standard input.
  char buf[256];
  while (read(STDIN_FILENO, buf, sizeof buf) > 0) {
  }
  front.Stop();
  if (trace) {
    ldp::obs::StopTracing();
    const std::string path = args.Str("trace-out", "");
    if (!path.empty() && !ldp::obs::WriteChromeTraceJson(path)) {
      std::fprintf(stderr, "ldpbench serve: cannot write %s\n", path.c_str());
    }
  }
  std::printf("DONE peak_rss_mb=%.6f\n", PeakRssMb());
  std::fflush(stdout);
  return 0;
}

}  // namespace ldpbench
