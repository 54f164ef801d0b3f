// The zero-copy ingestion contract, asserted at the allocator: absorbing a
// streamed report chunk into a MultiDimServer parses the wire bytes in
// place and appends straight into the per-tuple arena columns, so at
// steady state (arenas warmed by earlier chunks) a chunk's absorption
// performs ZERO heap allocations — no staging std::vector of decoded
// reports, no second copy of the chunk payload.
//
// This file overrides the global operator new/delete to count allocations,
// so it deliberately contains ONLY this test. The override is disabled
// under AddressSanitizer (it would bypass ASan's allocator instrumentation);
// the test skips itself there — the equivalent arena-level assertions run
// in every build via multidim_test and olh_test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "protocol/multidim_protocol.h"

#if defined(__SANITIZE_ADDRESS__)
#define LDP_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LDP_ALLOC_COUNTING 0
#else
#define LDP_ALLOC_COUNTING 1
#endif
#else
#define LDP_ALLOC_COUNTING 1
#endif

#if LDP_ALLOC_COUNTING

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // LDP_ALLOC_COUNTING

namespace ldp {
namespace {

using protocol::MultiDimReport;
using protocol::MultiDimServer;
using protocol::ParseError;

TEST(ZeroCopyIngestion, SteadyStateChunkAbsorbIsAllocationFree) {
#if !LDP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  MultiDimServer server(/*domain_per_dim=*/8, /*dimensions=*/2, /*eps=*/1.0);
  // One chunk: 64 reports, all for level tuple (1, 0) so the arena ramp is
  // confined to one oracle's columns and warms up quickly.
  std::vector<MultiDimReport> reports(64);
  for (size_t i = 0; i < reports.size(); ++i) {
    reports[i].levels = {1, 0};
    reports[i].seed = 0x9E3779B97F4A7C15ULL * (i + 1);
    reports[i].cell = static_cast<uint32_t>(i % server.hash_range());
  }
  const std::vector<uint8_t> chunk =
      protocol::SerializeReportBatch(protocol::MultiDimLayout{2}, reports);

  // Warmup: the first chunks carve the oracle's first arena blocks.
  for (int i = 0; i < 2; ++i) {
    uint64_t accepted = 0;
    ASSERT_EQ(server.AbsorbBatchSerialized(chunk, &accepted), ParseError::kOk);
    ASSERT_EQ(accepted, reports.size());
  }
  const uint64_t arena_allocs = server.report_allocation_count();

  // Steady state: 8 more chunks (512 reports, well inside the first
  // 1024-element chunk pair) must not allocate AT ALL.
  const uint64_t heap_before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) {
    uint64_t accepted = 0;
    ASSERT_EQ(server.AbsorbBatchSerialized(chunk, &accepted), ParseError::kOk);
    ASSERT_EQ(accepted, reports.size());
  }
  const uint64_t heap_after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(heap_after - heap_before, 0u)
      << "absorbing a streamed chunk allocated on the heap: the zero-copy "
         "wire -> arena path must not stage or copy reports";
  EXPECT_EQ(server.report_allocation_count(), arena_allocs);
#endif
}

}  // namespace
}  // namespace ldp
