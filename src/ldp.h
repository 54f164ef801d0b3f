// Umbrella header: the library's public API in one include.
//
//   #include "ldp.h"
//
// pulls in the range-query mechanisms (flat, hierarchical, HaarHRR), the
// frequency oracles they build on, quantile and post-processing helpers,
// the multidimensional grids, synthetic data + workload generators, the
// experiment harness, and the wire protocol. Individual headers remain
// includable on their own (each is self-contained); this header is for
// application code that just wants the toolbox.

#ifndef LDPRANGE_LDP_H_
#define LDPRANGE_LDP_H_

#include "common/random.h"
#include "common/stats.h"
#include "core/badic.h"
#include "core/consistency.h"
#include "core/flat.h"
#include "core/haar.h"
#include "core/haar_hrr.h"
#include "core/hierarchical.h"
#include "core/method.h"
#include "core/multidim.h"
#include "core/postprocess.h"
#include "core/quantile.h"
#include "core/range_mechanism.h"
#include "core/variance.h"
#include "data/dataset.h"
#include "data/distributions.h"
#include "data/workload.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "frequency/frequency_oracle.h"
#include "frequency/grr.h"
#include "frequency/hrr.h"
#include "frequency/olh.h"
#include "frequency/oue.h"
#include "frequency/sue.h"
#include "net/tcp_client.h"
#include "net/tcp_front_end.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/level_hrr.h"
#include "protocol/multidim_protocol.h"
#include "protocol/oracle_wire.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_server.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

#endif  // LDPRANGE_LDP_H_
