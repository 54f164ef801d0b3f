// The zero-copy ingestion contract on the TCP path, asserted at the
// allocator: a stream chunk received by a loopback TcpFrontEnd is read
// into a pooled slab, routed as a span into it, queued with a slab
// reference, absorbed by the one worker and its slab returned to the
// pool — and at steady state none of that makes a heap allocation, on
// any thread (the reactor, the worker, or this test's client).
//
// Like zero_copy_alloc_test.cc this file overrides the global operator
// new/delete to count allocations, so it holds only this test. The
// override is disabled under AddressSanitizer (it would bypass ASan's
// allocator instrumentation) and the test then skips itself.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/tcp_client.h"
#include "net/tcp_front_end.h"
#include "protocol/haar_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

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

using service::AggregatorService;

TEST(NetZeroCopyIngestion, SteadyStateTcpChunkIngestIsAllocationFree) {
#if !LDP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const service::ServerSpec spec{service::ServerKind::kHaar, 1024, 1.0};
  AggregatorService svc(/*worker_threads=*/1);
  const uint64_t server_id =
      svc.AddServer(service::MakeAggregatorServer(spec));
  net::TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  net::TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));

  // Pre-serialized chunks of 1000 reports (well above the copy-below
  // threshold, so they queue as slab spans). Sequence 255 first sizes the
  // session's dedupe bitmap past every later sequence.
  constexpr uint64_t kSession = 9;
  constexpr uint64_t kWarmup = 64;
  constexpr uint64_t kMeasured = 128;
  protocol::HaarHrrClient encoder(spec.domain, spec.eps);
  std::vector<uint64_t> users(1000);
  Rng values(17);
  for (uint64_t& v : users) v = values.UniformInt(spec.domain);
  Rng rng(5);
  const std::vector<uint8_t> batch = encoder.EncodeUsersSerialized(users, rng);
  std::vector<std::vector<uint8_t>> messages;
  messages.push_back(service::SerializeStreamChunk(kSession, 255, batch));
  for (uint64_t seq = 0; seq < kWarmup + kMeasured; ++seq) {
    messages.push_back(service::SerializeStreamChunk(kSession, seq, batch));
  }
  ASSERT_GE(messages[0].size() * net::kMaxPinnedBytesPerChunkByte,
            net::kSlabBytes);
  ASSERT_TRUE(
      client.Send(service::SerializeStreamBegin({kSession, server_id})));

  // Each step sends `count` chunks back to back and waits until the
  // worker has absorbed them (the count moves after the slab references
  // are dropped), so slabs cycle through the pool at a fixed depth.
  uint64_t sent = 0;
  auto send_and_absorb = [&](size_t first, size_t count) {
    for (size_t i = first; i < first + count; ++i) {
      if (!client.Send(messages[i])) return false;
    }
    sent += count;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (svc.stats().chunks_absorbed < sent) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  // Warm-up: the bitmap, the strand's queue vectors, the pool's slabs,
  // the reactor's mailbox and every lazily built registry entry.
  ASSERT_TRUE(send_and_absorb(0, 1));
  for (size_t i = 1; i < 1 + kWarmup; i += 8) {
    ASSERT_TRUE(send_and_absorb(i, 8));
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  bool ok = true;
  for (size_t i = 1 + kWarmup; ok && i < messages.size(); i += 8) {
    ok = send_and_absorb(i, 8);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(ok) << "chunks were not absorbed in time";
  EXPECT_EQ(after - before, 0u)
      << "steady-state TCP chunk ingest allocated on the heap: receive "
         "slabs, the admit path, the strand queue and the slab return must "
         "all reuse what warm-up built";

  front.Stop();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.chunks_absorbed, messages.size());
  EXPECT_EQ(stats.duplicate_chunks, 0u);
  EXPECT_EQ(stats.socket_pauses, 0u);
  EXPECT_EQ(svc.server(server_id).stats().accepted,
            users.size() * messages.size());
#endif
}

}  // namespace
}  // namespace ldp
