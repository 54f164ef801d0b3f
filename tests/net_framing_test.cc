// The TCP front end's read path without sockets: SlabFramer driven by
// split schedules from one byte to more than two slabs per "recv", with
// every routed frame going into a real AggregatorService. Whatever the
// split, the service must end in the state one-shot HandleMessage of the
// same messages produces — the same ServiceStats, and byte-identical
// query answers — across slab switches, frames that straddle a slab end
// or fill one exactly, oversized frames in the per-connection frame
// buffer, and a chunk parked by backpressure and resumed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/tcp_front_end.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using net::SlabFramer;
using net::SlabPool;
using service::AggregatorServer;
using service::AggregatorService;
using service::MakeAggregatorServer;
using service::ServerKind;
using service::ServerSpec;
using Bytes = std::vector<uint8_t>;

constexpr uint64_t kMaxMessage = uint64_t{1} << 26;
const ServerSpec kHaarSpec{ServerKind::kHaar, 1024, 1.0};

Bytes Concat(const std::vector<Bytes>& messages) {
  Bytes out;
  for (const Bytes& m : messages) out.insert(out.end(), m.begin(), m.end());
  return out;
}

// `reports` HaarHRR reports per chunk, `chunks` chunks, as one session.
std::vector<Bytes> HaarSession(uint64_t session_id, uint64_t server_id,
                               size_t chunks, size_t reports, bool finalize,
                               uint64_t seed) {
  protocol::HaarHrrClient client(kHaarSpec.domain, kHaarSpec.eps);
  Rng values(seed);
  std::vector<Bytes> trace;
  trace.push_back(service::SerializeStreamBegin({session_id, server_id}));
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<uint64_t> users(reports);
    for (uint64_t& v : users) v = values.UniformInt(kHaarSpec.domain);
    Rng rng(seed * 131 + c);
    trace.push_back(service::SerializeStreamChunk(
        session_id, c, client.EncodeUsersSerialized(users, rng)));
  }
  service::StreamEnd end;
  end.session_id = session_id;
  end.chunk_count = chunks;
  end.flags = finalize ? service::kStreamFlagFinalize : 0;
  trace.push_back(service::SerializeStreamEnd(end));
  return trace;
}

Bytes Query(uint64_t server_id, uint64_t query_id) {
  service::RangeQueryRequest request;
  request.query_id = query_id;
  request.server_id = server_id;
  request.intervals = {{0, kHaarSpec.domain - 1}, {3, 700}, {512, 513}};
  return service::SerializeRangeQueryRequest(request);
}

// A framed message of exactly `total` bytes with an unroutable tag: the
// service counts it malformed on both paths, the framer only frames it.
Bytes JunkFrame(size_t total) {
  Bytes frame(total, 0x5A);
  const uint32_t payload =
      static_cast<uint32_t>(total - protocol::kEnvelopeHeaderSize);
  frame[0] = protocol::kEnvelopeMagic0;
  frame[1] = protocol::kEnvelopeMagic1;
  frame[2] = protocol::kWireVersionV2;
  frame[3] = 0x7E;
  for (int i = 0; i < 4; ++i) frame[4 + i] = (payload >> (8 * i)) & 0xFF;
  return frame;
}

struct FeedResult {
  std::vector<Bytes> responses;
  bool bad_frame = false;
};

// Feeds `stream` through `framer` as the front end does: each schedule
// entry (cycled) is one recv of up to that many bytes, bounded by the
// framer's writable room, and every recv is followed by routing until
// the framer needs more. `on_would_block` must clear the congestion; the
// parked frame is then re-presented.
FeedResult Feed(SlabFramer& framer, AggregatorService& svc,
                std::span<const uint8_t> stream,
                std::span<const size_t> schedule,
                const std::function<void()>& on_would_block = nullptr) {
  FeedResult out;
  size_t offset = 0;
  size_t step = 0;
  while (offset < stream.size()) {
    const std::span<uint8_t> room = framer.WritableSpan();
    EXPECT_FALSE(room.empty());
    const size_t n = std::min({schedule[step++ % schedule.size()],
                               room.size(), stream.size() - offset});
    std::memcpy(room.data(), stream.data() + offset, n);
    framer.Commit(n);
    offset += n;
    while (true) {
      Bytes response;
      uint64_t blocked = 0;
      const SlabFramer::Step s = framer.RouteNext(svc, &response, &blocked);
      if (s == SlabFramer::Step::kNeedMore) break;
      if (s == SlabFramer::Step::kBadFrame) {
        out.bad_frame = true;
        return out;
      }
      if (s == SlabFramer::Step::kWouldBlock) {
        EXPECT_TRUE(on_would_block != nullptr);
        if (!on_would_block) return out;
        on_would_block();
        continue;
      }
      if (!response.empty()) out.responses.push_back(std::move(response));
    }
  }
  return out;
}

std::vector<Bytes> OneShot(AggregatorService& svc,
                           const std::vector<Bytes>& messages) {
  std::vector<Bytes> responses;
  for (const Bytes& m : messages) {
    Bytes r = svc.HandleMessage(m);
    if (!r.empty()) responses.push_back(std::move(r));
  }
  return responses;
}

// Split schedules from one byte to more than two slabs per recv.
std::vector<std::vector<size_t>> Schedules(size_t slab) {
  return {{1},
          {7},
          {3, 1, 4, 1, 5, 9, 2, 6},
          {slab / 3},
          {slab - 1},
          {slab},
          {slab + 1},
          {2 * slab + 5},
          {1, 2 * slab + 5, 13}};
}

// Two sessions, queries interleaved, and a finalize: several slabs of
// frames of many sizes, so frames straddle slab ends at every split.
std::vector<Bytes> MixedTrace(size_t reports_per_chunk) {
  std::vector<Bytes> trace = HaarSession(1, 0, 12, reports_per_chunk, false, 3);
  const std::vector<Bytes> second =
      HaarSession(2, 0, 9, reports_per_chunk / 3 + 1, true, 5);
  for (size_t i = 0; i < second.size(); ++i) {
    trace.push_back(second[i]);
    if (i % 4 == 0) trace.push_back(Query(0, i));  // kNotFinalized answers
  }
  for (uint64_t q = 0; q < 5; ++q) trace.push_back(Query(0, 100 + q));
  return trace;
}

TEST(NetFraming, SplitSchedulesMatchOneShotHandleMessage) {
  for (const size_t slab : {size_t{2048}, net::kSlabBytes}) {
    // ~3 slabs of stream at either slab size.
    const size_t reports = slab == net::kSlabBytes ? 6000 : 48;
    const std::vector<Bytes> trace = MixedTrace(reports);
    const Bytes stream = Concat(trace);
    ASSERT_GT(stream.size(), 2 * slab);

    AggregatorService reference(/*worker_threads=*/0);
    reference.AddServer(MakeAggregatorServer(kHaarSpec));
    const std::vector<Bytes> expected = OneShot(reference, trace);
    ASSERT_EQ(expected.size(), 8u);

    for (const std::vector<size_t>& schedule : Schedules(slab)) {
      SCOPED_TRACE("slab " + std::to_string(slab) + ", first split " +
                   std::to_string(schedule[0]));
      AggregatorService svc(/*worker_threads=*/0);
      svc.AddServer(MakeAggregatorServer(kHaarSpec));
      SlabFramer framer(SlabPool::Create(slab), kMaxMessage);
      const FeedResult got = Feed(framer, svc, stream, schedule);
      EXPECT_FALSE(got.bad_frame);
      EXPECT_EQ(framer.buffered(), 0u);
      EXPECT_EQ(got.responses, expected);
      EXPECT_EQ(svc.stats(), reference.stats());
      EXPECT_EQ(svc.server(0).stats(), reference.server(0).stats());
    }
  }
}

TEST(NetFraming, PooledWorkersMatchAndReturnEverySlab) {
  // Zero-copy chunks queued on a worker pool: slabs are pinned by the
  // queue and come back to the pool from the worker thread, and the pool
  // allocates only what was ever pinned at once.
  const std::vector<Bytes> trace = MixedTrace(48);
  const Bytes stream = Concat(trace);
  AggregatorService reference(/*worker_threads=*/0);
  reference.AddServer(MakeAggregatorServer(kHaarSpec));
  const std::vector<Bytes> expected = OneShot(reference, trace);

  const size_t slab = 2048;
  std::shared_ptr<SlabPool> pool = SlabPool::Create(slab);
  {
    AggregatorService svc(/*worker_threads=*/2);
    svc.AddServer(MakeAggregatorServer(kHaarSpec));
    SlabFramer framer(pool, kMaxMessage);
    const std::vector<size_t> schedule = {700};
    Feed(framer, svc, stream, schedule);
    svc.Drain();
    // The finalize flag rides the last session; queries raced it, so
    // compare the settled answers only.
    EXPECT_EQ(svc.HandleMessage(Query(0, 100)), expected[3]);
    EXPECT_EQ(svc.server(0).stats(), reference.server(0).stats());
    framer.ReleaseIfIdle();
  }
  EXPECT_LE(pool->slabs_allocated(), stream.size() / slab + 2);
}

TEST(NetFraming, FrameFillingASlabExactlyAndStraddlingFrames) {
  const size_t slab = 4096;
  // A full-slab frame first (lands at offset 0), then one after a small
  // frame (moved whole to a fresh slab), then frames sized to straddle
  // the end of the next slab by one byte either way.
  std::vector<Bytes> trace = HaarSession(1, 0, 2, 40, false, 9);
  trace.insert(trace.begin(), JunkFrame(slab));
  trace.push_back(JunkFrame(slab));
  trace.push_back(JunkFrame(slab - 1));
  trace.push_back(JunkFrame(9));
  trace.push_back(JunkFrame(slab / 2 + 1));
  trace.push_back(JunkFrame(slab / 2));
  trace.push_back(Query(0, 1));
  trace.push_back(JunkFrame(protocol::kEnvelopeHeaderSize));
  const Bytes stream = Concat(trace);

  AggregatorService reference(/*worker_threads=*/0);
  reference.AddServer(MakeAggregatorServer(kHaarSpec));
  const std::vector<Bytes> expected = OneShot(reference, trace);
  ASSERT_EQ(reference.stats().malformed_messages, 7u);

  for (const std::vector<size_t>& schedule : Schedules(slab)) {
    SCOPED_TRACE("first split " + std::to_string(schedule[0]));
    AggregatorService svc(/*worker_threads=*/0);
    svc.AddServer(MakeAggregatorServer(kHaarSpec));
    std::shared_ptr<SlabPool> pool = SlabPool::Create(slab);
    SlabFramer framer(pool, kMaxMessage);
    const FeedResult got = Feed(framer, svc, stream, schedule);
    EXPECT_FALSE(got.bad_frame);
    EXPECT_EQ(framer.buffered(), 0u);
    EXPECT_EQ(got.responses, expected);
    EXPECT_EQ(svc.stats(), reference.stats());
    EXPECT_EQ(svc.server(0).stats(), reference.server(0).stats());
    // Inline absorb pins nothing past the call: one slab at a time, and
    // a switch at most per slab-full of input.
    EXPECT_LE(pool->slabs_allocated(), 2u);
  }
}

TEST(NetFraming, OversizedFramesUseOneReusedFrameBuffer) {
  // Two ~0.5 MB kStateMerge snapshot pushes (one fan-in group) around
  // ordinary traffic: each is larger than a slab, goes to the frame
  // buffer, and the second reuses the first's buffer.
  const ServerSpec flat{ServerKind::kFlat, uint64_t{1} << 16, 1.0};
  std::vector<Bytes> shards;
  for (uint64_t s = 0; s < 2; ++s) {
    auto shard = MakeAggregatorServer(flat);
    protocol::FlatHrrClient client(flat.domain, flat.eps);
    std::vector<uint64_t> users(500, 1000 + 7 * s);
    Rng rng(s + 1);
    shard->AbsorbBatchSerialized(client.EncodeUsersSerialized(users, rng));
    shards.push_back(shard->SerializeState());
  }
  ASSERT_GT(shards[0].size(), net::kSlabBytes);
  std::vector<Bytes> trace = HaarSession(1, 0, 3, 50, true, 4);
  for (uint64_t s = 0; s < 2; ++s) {
    service::StateMergeRequest push;
    push.merge_id = 77;
    push.server_id = 1;
    push.shard_index = s;
    push.shard_count = 2;
    push.flags = service::kMergeFlagFinalize;
    trace.push_back(service::SerializeStateMerge(push, shards[s]));
    trace.push_back(Query(0, 10 + s));
  }
  trace.push_back(Query(1, 20));
  const Bytes stream = Concat(trace);

  auto build = [&](AggregatorService& svc) {
    svc.AddServer(MakeAggregatorServer(kHaarSpec));
    svc.AddServer(MakeAggregatorServer(flat));
  };
  AggregatorService reference(/*worker_threads=*/0);
  build(reference);
  const std::vector<Bytes> expected = OneShot(reference, trace);
  ASSERT_EQ(expected.size(), 5u);
  ASSERT_TRUE(reference.server_finalized(1));

  for (const std::vector<size_t>& schedule :
       std::vector<std::vector<size_t>>{{4096}, {65536}, {3 * net::kSlabBytes},
                                        {1000, 100000}}) {
    SCOPED_TRACE("first split " + std::to_string(schedule[0]));
    AggregatorService svc(/*worker_threads=*/0);
    build(svc);
    std::shared_ptr<SlabPool> pool = SlabPool::Create();
    SlabFramer framer(pool, kMaxMessage);
    const FeedResult got = Feed(framer, svc, stream, schedule);
    EXPECT_FALSE(got.bad_frame);
    EXPECT_EQ(got.responses, expected);
    EXPECT_EQ(framer.frame_buffers_allocated(), 1u);
    EXPECT_EQ(svc.server(1).stats(), reference.server(1).stats());
  }
}

// An absorb that parks the worker until the test opens it, so the queue
// bound is reached deterministically.
class GatedServer : public AggregatorServer {
 public:
  std::string Name() const override { return "Gated"; }
  uint64_t domain() const override { return 1; }
  bool AbsorbSerialized(std::span<const uint8_t>) override { return true; }
  protocol::ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                               uint64_t* accepted) override {
    absorbing_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    gate_cv_.wait(lock, [&] { return open_; });
    payload_bytes_ += bytes.size();
    ++batches_;
    if (accepted != nullptr) *accepted = 1;
    return protocol::ParseError::kOk;
  }
  double RangeQuery(uint64_t, uint64_t) const override { return 0.0; }
  RangeEstimate RangeQueryWithUncertainty(uint64_t, uint64_t) const override {
    return {0.0, 0.0};
  }
  std::vector<double> EstimateFrequencies() const override { return {0.0}; }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }
  bool absorbing() const { return absorbing_.load(std::memory_order_acquire); }
  uint64_t batches() {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }
  uint64_t payload_bytes() {
    std::lock_guard<std::mutex> lock(mu_);
    return payload_bytes_;
  }

 protected:
  void DoFinalize() override {}
  service::StateKind state_kind() const override {
    return service::StateKind::kFlat;
  }
  double state_epsilon() const override { return 1.0; }
  void AppendStateBody(std::vector<uint8_t>&) const override {}
  bool RestoreStateBody(std::span<const uint8_t>) override { return true; }
  std::unique_ptr<AggregatorServer> DoCloneEmpty() const override {
    return nullptr;
  }
  service::MergeStatus DoMergeFrom(AggregatorServer&) override {
    return service::MergeStatus::kOk;
  }

 private:
  std::mutex mu_;
  std::condition_variable gate_cv_;
  bool open_ = false;
  uint64_t batches_ = 0;
  uint64_t payload_bytes_ = 0;
  std::atomic<bool> absorbing_{false};
};

TEST(NetFraming, PausedChunkCarriedAcrossASlabSwitchThenResumed) {
  // Gated server, one worker, a one-chunk queue. Chunk 0 parks the worker
  // in the gate, chunk 1 fills the queue, and chunk 2 — whose frame
  // straddles the first slab's end, so it completes in a fresh slab —
  // would-blocks there and stays parked. Opening the gate drains the
  // strand; the re-presented chunk is admitted exactly once and the haar
  // session behind it replays as in the one-shot reference.
  const size_t slab = 2048;
  const Bytes payload(200, 0xC3);  // pinned: >= slab / 64
  std::vector<Bytes> head = {
      service::SerializeStreamBegin({20, 0}),
      service::SerializeStreamChunk(20, 0, payload)};
  std::vector<Bytes> rest = {service::SerializeStreamChunk(20, 1, payload)};
  const Bytes chunk2 = service::SerializeStreamChunk(20, 2, payload);
  const size_t before = Concat(head).size() + Concat(rest).size();
  // Pad so chunk 2 starts 50 bytes before the slab end.
  rest.push_back(JunkFrame(slab - 50 - before));
  rest.push_back(chunk2);
  const std::vector<Bytes> haar = HaarSession(21, 1, 4, 30, true, 8);
  rest.insert(rest.end(), haar.begin(), haar.end());
  service::StreamEnd end;
  end.session_id = 20;
  end.chunk_count = 3;
  rest.push_back(service::SerializeStreamEnd(end));

  AggregatorService reference(/*worker_threads=*/0);
  auto open_gate = std::make_unique<GatedServer>();
  open_gate->Open();
  reference.AddServer(std::move(open_gate));
  reference.AddServer(MakeAggregatorServer(kHaarSpec));
  std::vector<Bytes> all = head;
  all.insert(all.end(), rest.begin(), rest.end());
  ASSERT_TRUE(OneShot(reference, all).empty());
  ASSERT_TRUE(reference.server_finalized(1));
  const Bytes expected = reference.HandleMessage(Query(1, 5));

  auto owned = std::make_unique<GatedServer>();
  GatedServer* gated = owned.get();
  AggregatorService svc(/*worker_threads=*/1, /*queue_high_water=*/1);
  svc.AddServer(std::move(owned));
  svc.AddServer(MakeAggregatorServer(kHaarSpec));
  std::shared_ptr<SlabPool> pool = SlabPool::Create(slab);
  SlabFramer framer(pool, kMaxMessage);
  const std::vector<size_t> whole = {slab};
  ASSERT_TRUE(Feed(framer, svc, Concat(head), whole).responses.empty());
  while (!gated->absorbing()) std::this_thread::yield();

  int blocks = 0;
  const std::vector<size_t> schedule = {97};
  const FeedResult got =
      Feed(framer, svc, Concat(rest), schedule, [&] {
        if (++blocks == 1) {
          // Parked, nothing recorded, and held in the fresh slab.
          EXPECT_EQ(pool->slabs_allocated(), 2u);
          EXPECT_EQ(svc.stats().socket_pauses, 1u);
          EXPECT_EQ(gated->batches(), 0u);
          gated->Open();
        }
        // Later blocks are the haar strand's one-chunk queue.
        svc.Drain();
      });
  svc.Drain();
  EXPECT_GE(blocks, 1);
  EXPECT_TRUE(got.responses.empty());
  EXPECT_EQ(svc.HandleMessage(Query(1, 5)), expected);
  EXPECT_EQ(gated->batches(), 3u);
  EXPECT_EQ(gated->payload_bytes(), 3 * payload.size());
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.duplicate_chunks, 0u);
  EXPECT_EQ(stats.incomplete_streams, 0u);
  EXPECT_EQ(stats.chunks_absorbed, reference.stats().chunks_absorbed);
  EXPECT_EQ(svc.server(1).stats(), reference.server(1).stats());
}

TEST(NetFraming, SmallChunksAreCopiedNotPinned) {
  // A chunk under 1/64 of its slab is lent for the call and copied by
  // the service, so a queue of tiny chunks holds no slab: after routing,
  // the framer's slab is unreferenced and goes straight back to the pool.
  const size_t slab = net::kSlabBytes;
  auto owned = std::make_unique<GatedServer>();
  GatedServer* gated = owned.get();
  AggregatorService svc(/*worker_threads=*/1);
  svc.AddServer(std::move(owned));
  std::shared_ptr<SlabPool> pool = SlabPool::Create(slab);
  SlabFramer framer(pool, kMaxMessage);
  std::vector<Bytes> trace = {service::SerializeStreamBegin({1, 0})};
  for (uint64_t c = 0; c < 50; ++c) {
    trace.push_back(service::SerializeStreamChunk(1, c, Bytes(100, 0x11)));
  }
  const std::vector<size_t> schedule = {slab};
  Feed(framer, svc, Concat(trace), schedule);
  while (!gated->absorbing()) std::this_thread::yield();
  // The gate holds the worker, so all 50 chunks are still queued or in
  // absorb — yet no slab is pinned by them.
  framer.ReleaseIfIdle();
  EXPECT_EQ(pool->slabs_allocated(), 1u);
  SlabFramer second(pool, kMaxMessage);
  second.WritableSpan();
  EXPECT_EQ(pool->slabs_allocated(), 1u);  // the same slab, reused
  gated->Open();
  svc.Drain();
  EXPECT_EQ(gated->batches(), 50u);
}

TEST(NetFraming, EofMidFrameLeavesBytesBuffered) {
  // The front end turns "peer EOF with bytes still buffered" into a
  // protocol error; the framer's part is to keep a partial frame (here
  // a partial oversized one) unrouted whatever the split.
  const ServerSpec flat{ServerKind::kFlat, 64, 1.0};
  Bytes big = JunkFrame(net::kSlabBytes + 1000);
  big.resize(big.size() - 1);
  const Bytes stream =
      Concat({service::SerializeStreamBegin({1, 0}), Query(0, 1), big});
  for (const size_t split : {size_t{1} << 10, size_t{1} << 20}) {
    AggregatorService svc(/*worker_threads=*/0);
    svc.AddServer(MakeAggregatorServer(flat));
    SlabFramer framer(SlabPool::Create(), kMaxMessage);
    const std::vector<size_t> schedule = {split};
    const FeedResult got = Feed(framer, svc, stream, schedule);
    EXPECT_FALSE(got.bad_frame);
    EXPECT_EQ(got.responses.size(), 1u);
    EXPECT_EQ(framer.buffered(), big.size());
    EXPECT_EQ(svc.stats().messages, 2u);
  }
}

TEST(NetFraming, BadMagicAndOversizedLengthStopFraming) {
  AggregatorService svc(/*worker_threads=*/0);
  Bytes bad = JunkFrame(16);
  bad[1] ^= 0xFF;
  SlabFramer framer(SlabPool::Create(1024), /*max_message_bytes=*/64);
  const std::vector<size_t> schedule = {5};
  EXPECT_TRUE(Feed(framer, svc, Concat({JunkFrame(20), bad}), schedule)
                  .bad_frame);
  SlabFramer limited(SlabPool::Create(1024), /*max_message_bytes=*/64);
  EXPECT_TRUE(
      Feed(limited, svc, Concat({JunkFrame(64), JunkFrame(65)}), schedule)
          .bad_frame);
  EXPECT_EQ(svc.stats().malformed_messages, 2u);
}

}  // namespace
}  // namespace ldp
