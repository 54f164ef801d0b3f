// TCP transport front-end for the aggregator service.
//
// TcpFrontEnd is the piece that finally puts AggregatorService on a
// socket: an epoll-based, single-event-loop TCP server that speaks the
// existing v2 envelope, unmodified, as its stream framing. The envelope
// header already carries an exact payload length, so a connection is
// just a concatenation of framed messages:
//
//   client                        TcpFrontEnd                 service
//   bytes --TCP--> [8-byte header | payload] split --------> TryHandleMessage
//          <-TCP-- [kRangeQueryResponse / kMultiDimQueryResponse] <- queries
//
// Stream messages (kStreamBegin/Chunk/End) are fire-and-forget exactly
// as in-process; query requests produce one framed response each, written
// back on the same connection in request order. Anything the service
// counts as malformed is counted and skipped — the connection survives,
// because framing only depends on the magic and length. Bytes that break
// the framing itself (bad magic, oversized declared length) are
// unrecoverable on a byte stream: the connection is closed and counted
// in stats().protocol_errors.
//
// Read path (zero-copy). Each connection's SlabFramer receives straight
// into a fixed-size slab (kSlabBytes) taken from the front-end's
// SlabPool. After every recv it routes each complete frame as a span
// into that slab; an admitted stream chunk is queued in place, holding a
// reference on its slab (service::ChunkRef) until a worker has absorbed
// it. Before switching to a fresh slab every complete frame has already
// been routed, so the switch copies only the trailing partial frame.
// A frame larger than a slab (a ~0.5 MB kStateMerge snapshot) is received
// into one per-connection frame buffer instead, reused for the next
// oversized frame once nothing references it.
//
// Slab lifetime. A slab is referenced by the connection filling it, by
// every queued chunk inside it, and by a parked frame (below). The last
// reference returns it to the pool from whichever thread drops it —
// usually a worker right after absorbing — and the pool keeps up to
// kMaxPooledSlabs free slabs for reuse, so steady-state ingest allocates
// nothing. A connection drops its slab when nothing in it is unrouted or
// referenced, so an idle connection pins no slab; the pool outlives the
// front-end for as long as any slab is still queued in the service.
//
// Pinned-memory bound. A frame is passed to the service as the slab's
// span only when it is at least 1/kMaxPinnedBytesPerChunkByte of its
// buffer (4 KiB of a 256 KiB slab). A smaller chunk is lent for the call
// and the service copies it. So every byte a queued chunk pins — the
// whole slab or frame buffer it sits in — is at most
// kMaxPinnedBytesPerChunkByte times the chunk's own size, and a stream of
// tiny chunks interleaved with other traffic cannot hold whole slabs.
//
// Backpressure is propagated from the bounded ingestion queues to the
// socket instead of blocking a thread: a chunk whose target server queue
// is at its high-water mark makes TryHandleMessage return kWouldBlock,
// and the front-end then parks the message — it stays unrouted at the
// head of its slab, which stays referenced — deregisters the connection
// from EPOLLIN (the kernel socket buffer and ultimately the client's
// send window absorb the pressure), and re-presents it when the
// service's queue-drain hook fires for that server. No service thread
// ever blocks on a socket's behalf; ServiceStats.socket_pauses counts
// the deferrals.
//
// Timing: net.recv_ns and net.route_ns record, once per readable event
// (route_ns also once per resumed connection), the event loop's time in
// recv and in routing — framing, admitting, and whatever the service
// handles synchronously (queries, scrapes, merges) — so a stats scrape
// shows reactor time beside the strands' absorb time.
//
// Connection lifecycle: accepted connections are non-blocking and live
// until (a) the peer closes or half-closes — remaining complete messages
// are processed and pending responses flushed before the close
// (graceful, so "send session + shutdown(SHUT_WR)" is a correct client),
// (b) they sit idle past config.idle_timeout_ms (paused connections are
// exempt — they are waiting on the service, not the client), or (c) a
// framing violation. Everything runs on one event-loop thread; the only
// cross-thread touch points are the drain hook (an eventfd wakeup), slab
// returns (the pool's mutex and the slabs' reference counts) and Stop().
//
// One front-end serves one AggregatorService (it owns the service's
// queue-drain hook); the service must outlive the front-end, and
// Stop()/the destructor detach the hook before tearing anything down.

#ifndef LDPRANGE_NET_TCP_FRONT_END_H_
#define LDPRANGE_NET_TCP_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "service/aggregator_service.h"
#include "service/chunk_owner.h"

namespace ldp::net {

/// Size of one receive slab: large enough that a bulk-streaming
/// connection fills it over a few recvs and a slab switch is rare,
/// small enough that the frames a slab holds are absorbed together.
inline constexpr size_t kSlabBytes = size_t{256} << 10;

/// The pinned-memory bound: the buffer a queued chunk keeps alive is at
/// most this many times the chunk's own size (see the file comment).
inline constexpr size_t kMaxPinnedBytesPerChunkByte = 64;

/// Free slabs a pool keeps for reuse (16 MiB); more are freed.
inline constexpr size_t kMaxPooledSlabs = 64;

class SlabPool;

/// A receive buffer: a pooled slab, or one connection's oversized-frame
/// buffer. Reference-counted through service::ChunkOwner; the last
/// reference returns a slab to its pool and deletes a frame buffer.
class RecvBuffer final : public service::ChunkOwner {
 public:
  uint8_t* data() { return bytes_.get(); }
  size_t capacity() const { return capacity_; }

 private:
  friend class SlabPool;
  friend class SlabFramer;
  RecvBuffer(size_t capacity, std::shared_ptr<SlabPool> pool);
  ~RecvBuffer() override = default;
  void Release() noexcept override;

  std::unique_ptr<uint8_t[]> bytes_;
  size_t capacity_;
  // The owning pool while the slab is out; null while it is pooled and
  // for a frame buffer.
  std::shared_ptr<SlabPool> pool_;
};

/// Thread-safe free list of slabs. Acquire runs on the event loop;
/// slabs come back from whichever thread drops their last reference.
/// A slab that is out holds a pool reference, so the pool outlives its
/// front-end while any slab is still queued in the service; a pooled
/// slab holds none, so the last owner's release frees the free list.
class SlabPool : public std::enable_shared_from_this<SlabPool> {
 public:
  /// `slab_bytes` is kSlabBytes for every front-end; tests shrink it to
  /// reach slab switches with small inputs.
  static std::shared_ptr<SlabPool> Create(size_t slab_bytes = kSlabBytes);
  ~SlabPool();
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  size_t slab_bytes() const { return slab_bytes_; }
  /// A free slab (reference count 0), allocating when none is pooled.
  RecvBuffer* Acquire();
  /// Slabs allocated over the pool's lifetime (allocation accounting).
  uint64_t slabs_allocated() const;

 private:
  friend class RecvBuffer;
  explicit SlabPool(size_t slab_bytes);
  void Return(RecvBuffer* slab);

  const size_t slab_bytes_;
  mutable std::mutex mu_;
  std::vector<RecvBuffer*> free_;  // capacity kMaxPooledSlabs, reserved
  uint64_t allocated_ = 0;
};

/// The socket-free inbound half of one connection: receive buffering,
/// framing on the envelope's magic and length, and routing of each
/// complete frame into the service (see the file comment). The caller
/// recvs into WritableSpan(), Commit()s the byte count, then calls
/// RouteNext until it returns anything but kRouted.
class SlabFramer {
 public:
  enum class Step : uint8_t {
    kRouted,      // one frame handled; `*response` may hold a reply
    kNeedMore,    // no complete frame is buffered
    kWouldBlock,  // the head chunk's queue is full; it stays parked
    kBadFrame,    // bad magic or a declared length past the limit
  };

  SlabFramer(std::shared_ptr<SlabPool> pool, uint64_t max_message_bytes);

  /// Where the next recv lands — never empty. Valid only after RouteNext
  /// returned kNeedMore (every complete frame routed): a slab switch
  /// then copies just the trailing partial frame, and a frame that
  /// declared more than a slab goes to the frame buffer, which exposes
  /// exactly the frame's missing bytes.
  std::span<uint8_t> WritableSpan();
  void Commit(size_t bytes) { write_pos_ += bytes; }

  /// Routes the head frame through service.TryHandleMessage. A parked
  /// (kWouldBlock) frame is re-presented by the next call.
  Step RouteNext(service::AggregatorService& service,
                 std::vector<uint8_t>* response, uint64_t* blocked_server);

  /// Received bytes not yet routed.
  size_t buffered() const { return write_pos_ - read_pos_; }

  /// Drops the current slab when it holds nothing unrouted and nothing
  /// else references it, so an idle connection pins no slab.
  void ReleaseIfIdle();

  /// Oversized-frame buffers this framer allocated (reuse accounting).
  uint64_t frame_buffers_allocated() const { return frame_buffers_; }

 private:
  enum class Head : uint8_t { kIncomplete, kBad, kOk };
  Head ParseHead(uint64_t* total) const;
  RecvBuffer* buffer() const { return static_cast<RecvBuffer*>(buf_.get()); }
  void UseSlab(RecvBuffer* slab);
  /// Moves the unrouted partial frame to the start of a buffer with room
  /// for it: the same slab when nothing else references it, a fresh one
  /// otherwise.
  void MoveHeadToFreshSlab();
  /// Moves the unrouted head of an oversized frame (`total` bytes) into
  /// the connection's frame buffer.
  void MoveHeadToFrameBuffer(uint64_t total);

  std::shared_ptr<SlabPool> pool_;
  const uint64_t max_message_bytes_;
  service::ChunkRef buf_;    // current slab or frame buffer; may be empty
  service::ChunkRef spare_;  // the frame buffer while a slab is current
  bool in_frame_buffer_ = false;
  size_t read_pos_ = 0;   // start of the first unrouted byte
  size_t write_pos_ = 0;  // end of the received bytes
  size_t limit_ = 0;      // end of the usable space in buf_
  uint64_t frame_buffers_ = 0;
};

struct TcpFrontEndConfig {
  /// Address to bind; the default serves loopback only (benches, tests,
  /// single-box deployments). "0.0.0.0" listens on all interfaces.
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port, published via port().
  uint16_t port = 0;
  int listen_backlog = 256;
  /// Upper bound on one framed message (header + payload). The envelope
  /// field allows 4 GiB; no real chunk or query comes within a mile of
  /// 64 MiB, so anything larger is treated as a framing attack.
  uint32_t max_message_bytes = uint32_t{1} << 26;
  /// Connections idle longer than this are closed (0 disables). Paused
  /// connections — waiting on a congested server queue — are exempt.
  int64_t idle_timeout_ms = 0;
  /// Accept cap; connections past it are closed immediately on accept.
  size_t max_connections = 16384;
};

/// Front-end counters. Monotonic over the front-end's lifetime; read via
/// stats() from any thread.
struct TcpFrontEndStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;   // every close, whatever the reason
  uint64_t connections_rejected = 0;  // past config.max_connections
  uint64_t idle_closes = 0;
  uint64_t protocol_errors = 0;  // framing violations (connection killed)
  uint64_t messages_routed = 0;  // complete messages handed to the service
  uint64_t responses_sent = 0;   // query responses queued for write
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t read_pauses = 0;   // EPOLLIN deregistrations (backpressure)
  uint64_t read_resumes = 0;  // re-arms after a queue-drain notification
};

class TcpFrontEnd {
 public:
  /// Binds nothing yet; call Start(). `service` must outlive this object.
  explicit TcpFrontEnd(service::AggregatorService& service,
                       TcpFrontEndConfig config = {});
  ~TcpFrontEnd();

  TcpFrontEnd(const TcpFrontEnd&) = delete;
  TcpFrontEnd& operator=(const TcpFrontEnd&) = delete;

  /// Binds, listens, registers the service drain hook and spawns the
  /// event loop. False (with errno intact) when the socket setup fails;
  /// a started front-end must be Stop()ped (the destructor does).
  bool Start();

  /// Detaches the drain hook, wakes the loop, closes every connection
  /// and joins the thread. Idempotent.
  void Stop();

  bool running() const { return running_; }

  /// The bound port — the ephemeral one when config.port was 0. Valid
  /// after a successful Start().
  uint16_t port() const { return port_; }

  TcpFrontEndStats stats() const;

 private:
  struct Connection {
    Connection(std::shared_ptr<SlabPool> pool, uint64_t max_message_bytes)
        : framer(std::move(pool), max_message_bytes) {}
    int fd = -1;
    // Inbound bytes, framed in place; the parked message (if any) is its
    // head frame.
    SlabFramer framer;
    // Outbound: FIFO of framed responses, write_pos into the front one.
    std::deque<std::vector<uint8_t>> write_queue;
    size_t write_pos = 0;
    bool want_write = false;  // EPOLLOUT currently armed
    // Whether the fd is registered with epoll at all. An EOF'd paused
    // connection is deregistered outright: with a zero event mask the
    // kernel would still report EPOLLHUP every round and spin the loop.
    bool in_epoll = true;
    // Backpressure: the head frame would-blocked on `paused_server`'s
    // queue and is re-presented when that queue drains.
    bool paused = false;
    uint64_t paused_server = 0;
    bool peer_eof = false;  // read side done; close once drained+flushed
    uint64_t last_activity_ns = 0;
  };

  void EventLoop();
  void AcceptReady();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  /// Routes every complete buffered frame, starting with the parked one
  /// of a paused connection; stops early when the connection pauses.
  /// Returns false when the connection was closed (framing violation,
  /// or the peer vanished while a response was being written).
  bool RouteFrames(Connection& conn);
  /// After routing: an EOF'd connection with a partial frame is a
  /// protocol error; otherwise release an idle slab and close the
  /// connection if it is done.
  void FinishRouting(Connection& conn);
  /// Retries the parked message of every connection paused on
  /// `server_id`, then routes the rest of their buffered frames.
  void ResumePaused(uint64_t server_id);
  /// Writes what the peer accepts; false when the connection was closed.
  bool FlushWrites(Connection& conn);
  void UpdateEpoll(Connection& conn, bool want_read);
  void CloseConnection(int fd);
  /// Closes `conn` if it is fully done: peer EOF, nothing buffered,
  /// nothing pending, nothing left to write.
  void MaybeFinishClose(Connection& conn);
  void SweepIdle();

  service::AggregatorService& service_;
  const TcpFrontEndConfig config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: drain notifications + stop
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread loop_;

  // Cross-thread mailbox: the service's drain hook (worker threads)
  // pushes server ids here and signals wake_fd_; the loop swaps the
  // vector out under the same mutex. stop_requested_ rides along.
  std::mutex mailbox_mu_;
  std::vector<uint64_t> pending_drains_;  // distinct ids
  bool stop_requested_ = false;

  // Event-loop thread only: the connection table, the swapped-out
  // mailbox and the resume candidates. The vectors keep their capacity,
  // so a drain notification allocates nothing.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::vector<uint64_t> drains_;
  std::vector<int> resume_candidates_;
  std::shared_ptr<SlabPool> pool_ = SlabPool::Create();
  // Front-end counters, owned by the service's metrics registry under
  // "net.*" names so one stats scrape (kStatsQuery or stats()) sees
  // transport and service in a single snapshot. Counter addresses are
  // stable for the registry's — that is, the service's — lifetime.
  struct NetCounters {
    explicit NetCounters(obs::MetricsRegistry& registry);
    obs::Counter* connections_accepted;
    obs::Counter* connections_closed;
    obs::Counter* connections_rejected;
    obs::Counter* idle_closes;
    obs::Counter* protocol_errors;
    obs::Counter* messages_routed;
    obs::Counter* responses_sent;
    obs::Counter* bytes_received;
    obs::Counter* bytes_sent;
    obs::Counter* read_pauses;
    obs::Counter* read_resumes;
    obs::LatencyHistogram* recv_ns;   // per readable event
    obs::LatencyHistogram* route_ns;  // per readable or resume event
  };
  NetCounters stats_{service_.registry()};
};

}  // namespace ldp::net

#endif  // LDPRANGE_NET_TCP_FRONT_END_H_
