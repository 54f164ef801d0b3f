#include "net/tcp_front_end.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/scoped_timer.h"
#include "protocol/envelope.h"

namespace ldp::net {

namespace {

// Events processed per epoll_wait round.
constexpr int kMaxEvents = 64;

// With idle sweeping enabled the loop must wake even when no fd fires.
constexpr int kIdleTickMs = 250;

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// The owner passed with a frame too small to pin its buffer: the service
// copies a chunk out of lent bytes.
const service::ChunkRef kLentBytes;

}  // namespace

// ---- Receive buffers ---------------------------------------------------

RecvBuffer::RecvBuffer(size_t capacity, std::shared_ptr<SlabPool> pool)
    : bytes_(new uint8_t[capacity]),
      capacity_(capacity),
      pool_(std::move(pool)) {}

void RecvBuffer::Release() noexcept {
  if (pool_ != nullptr) {
    // Return() drops the slab's pool reference; this one keeps the pool
    // alive until it is done, and may then free it and this slab.
    std::shared_ptr<SlabPool> pool = pool_;
    pool->Return(this);
  } else {
    delete this;
  }
}

std::shared_ptr<SlabPool> SlabPool::Create(size_t slab_bytes) {
  return std::shared_ptr<SlabPool>(new SlabPool(slab_bytes));
}

SlabPool::SlabPool(size_t slab_bytes) : slab_bytes_(slab_bytes) {
  free_.reserve(kMaxPooledSlabs);
}

SlabPool::~SlabPool() {
  for (RecvBuffer* slab : free_) delete slab;
}

RecvBuffer* SlabPool::Acquire() {
  RecvBuffer* slab = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      ++allocated_;
    } else {
      slab = free_.back();
      free_.pop_back();
    }
  }
  if (slab == nullptr) return new RecvBuffer(slab_bytes_, shared_from_this());
  slab->pool_ = shared_from_this();
  return slab;
}

void SlabPool::Return(RecvBuffer* slab) {
  // A pooled slab holds no pool reference, so the pool dies with its
  // last owner (front-end or outstanding slab) and frees the free list.
  slab->pool_.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < kMaxPooledSlabs) {
      free_.push_back(slab);
      return;
    }
  }
  delete slab;
}

uint64_t SlabPool::slabs_allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocated_;
}

// ---- Framing -----------------------------------------------------------

SlabFramer::SlabFramer(std::shared_ptr<SlabPool> pool,
                       uint64_t max_message_bytes)
    : pool_(std::move(pool)), max_message_bytes_(max_message_bytes) {}

SlabFramer::Head SlabFramer::ParseHead(uint64_t* total) const {
  using protocol::kEnvelopeHeaderSize;
  if (buffered() < kEnvelopeHeaderSize) return Head::kIncomplete;
  const uint8_t* head = buffer()->data() + read_pos_;
  // Framing needs only the magic and the length; full validation is the
  // service's job (a malformed-but-framed message is counted and
  // skipped, the stream stays in sync).
  if (head[0] != protocol::kEnvelopeMagic0 ||
      head[1] != protocol::kEnvelopeMagic1) {
    return Head::kBad;
  }
  const uint32_t payload_len =
      static_cast<uint32_t>(head[4]) | (static_cast<uint32_t>(head[5]) << 8) |
      (static_cast<uint32_t>(head[6]) << 16) |
      (static_cast<uint32_t>(head[7]) << 24);
  *total = static_cast<uint64_t>(kEnvelopeHeaderSize) + payload_len;
  return *total > max_message_bytes_ ? Head::kBad : Head::kOk;
}

void SlabFramer::UseSlab(RecvBuffer* slab) {
  buf_ = service::ChunkRef(slab);
  in_frame_buffer_ = false;
  read_pos_ = 0;
  write_pos_ = 0;
  limit_ = slab->capacity();
}

std::span<uint8_t> SlabFramer::WritableSpan() {
  if (!buf_) {
    UseSlab(pool_->Acquire());
  } else if (buffered() == 0 && in_frame_buffer_) {
    // The oversized frame was routed: keep its buffer for the next one.
    spare_ = std::move(buf_);
    UseSlab(pool_->Acquire());
  } else if (buffered() == 0 && buf_.get()->unique()) {
    read_pos_ = 0;  // nothing unrouted, nothing queued: start over
    write_pos_ = 0;
  }
  uint64_t total = 0;
  const Head head = ParseHead(&total);
  LDP_CHECK(head != Head::kBad);  // RouteNext reported it; never read on
  if (!in_frame_buffer_) {
    if (head == Head::kOk && total > pool_->slab_bytes()) {
      MoveHeadToFrameBuffer(total);
    } else if (write_pos_ == limit_ ||
               (head == Head::kOk && read_pos_ + total > limit_)) {
      MoveHeadToFreshSlab();
    }
  }
  return {buffer()->data() + write_pos_, limit_ - write_pos_};
}

void SlabFramer::MoveHeadToFreshSlab() {
  const size_t partial = buffered();
  if (buf_.get()->unique()) {
    std::memmove(buffer()->data(), buffer()->data() + read_pos_, partial);
    read_pos_ = 0;
    write_pos_ = partial;
    return;
  }
  const service::ChunkRef old = std::move(buf_);
  const uint8_t* from =
      static_cast<RecvBuffer*>(old.get())->data() + read_pos_;
  UseSlab(pool_->Acquire());
  std::memcpy(buffer()->data(), from, partial);
  write_pos_ = partial;
}

void SlabFramer::MoveHeadToFrameBuffer(uint64_t total) {
  // Reuse the connection's frame buffer once nothing references it and
  // it is not so much larger than this frame that pinning it would break
  // the bound.
  auto* frame = static_cast<RecvBuffer*>(spare_.get());
  const bool reuse = frame != nullptr && frame->unique() &&
                     frame->capacity() >= total &&
                     frame->capacity() / kMaxPinnedBytesPerChunkByte <= total;
  service::ChunkRef next = std::move(spare_);
  if (!reuse) {
    next = service::ChunkRef(new RecvBuffer(total, nullptr));
    ++frame_buffers_;
  }
  const size_t partial = buffered();
  std::memcpy(static_cast<RecvBuffer*>(next.get())->data(),
              buffer()->data() + read_pos_, partial);
  buf_ = std::move(next);  // the slab goes back once unreferenced
  in_frame_buffer_ = true;
  read_pos_ = 0;
  write_pos_ = partial;
  limit_ = static_cast<size_t>(total);
}

SlabFramer::Step SlabFramer::RouteNext(service::AggregatorService& service,
                                       std::vector<uint8_t>* response,
                                       uint64_t* blocked_server) {
  response->clear();
  uint64_t total = 0;
  switch (ParseHead(&total)) {
    case Head::kIncomplete:
      return Step::kNeedMore;
    case Head::kBad:
      return Step::kBadFrame;
    case Head::kOk:
      break;
  }
  if (buffered() < total) return Step::kNeedMore;
  const std::span<const uint8_t> frame(buffer()->data() + read_pos_,
                                       static_cast<size_t>(total));
  // The pinned-memory bound: only a frame of at least 1/k of its buffer
  // may keep the buffer alive on a queue.
  const bool pin =
      total * kMaxPinnedBytesPerChunkByte >= buffer()->capacity();
  if (service.TryHandleMessage(pin ? buf_ : kLentBytes, frame, response,
                               blocked_server) ==
      service::AggregatorService::AdmitResult::kWouldBlock) {
    return Step::kWouldBlock;
  }
  read_pos_ += static_cast<size_t>(total);
  return Step::kRouted;
}

void SlabFramer::ReleaseIfIdle() {
  if (buf_ && !in_frame_buffer_ && buffered() == 0 && buf_.get()->unique()) {
    buf_.reset();
  }
}

// ---- Front end -----------------------------------------------------------

TcpFrontEnd::NetCounters::NetCounters(obs::MetricsRegistry& registry)
    : connections_accepted(&registry.GetCounter("net.connections_accepted")),
      connections_closed(&registry.GetCounter("net.connections_closed")),
      connections_rejected(&registry.GetCounter("net.connections_rejected")),
      idle_closes(&registry.GetCounter("net.idle_closes")),
      protocol_errors(&registry.GetCounter("net.protocol_errors")),
      messages_routed(&registry.GetCounter("net.messages_routed")),
      responses_sent(&registry.GetCounter("net.responses_sent")),
      bytes_received(&registry.GetCounter("net.bytes_received")),
      bytes_sent(&registry.GetCounter("net.bytes_sent")),
      read_pauses(&registry.GetCounter("net.read_pauses")),
      read_resumes(&registry.GetCounter("net.read_resumes")),
      recv_ns(&registry.GetHistogram("net.recv_ns")),
      route_ns(&registry.GetHistogram("net.route_ns")) {}

TcpFrontEnd::TcpFrontEnd(service::AggregatorService& service,
                         TcpFrontEndConfig config)
    : service_(service), config_(std::move(config)) {}

TcpFrontEnd::~TcpFrontEnd() { Stop(); }

bool TcpFrontEnd::Start() {
  LDP_CHECK(!running_.load());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(listen_fd_);
    errno = EINVAL;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, config_.listen_backlog) < 0) {
    CloseFd(listen_fd_);
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    CloseFd(listen_fd_);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    CloseFd(listen_fd_);
    CloseFd(epoll_fd_);
    CloseFd(wake_fd_);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  LDP_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev), 0);
  ev.data.fd = wake_fd_;
  LDP_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev), 0);

  stop_requested_ = false;
  pending_drains_.reserve(16);
  drains_.reserve(16);
  // The drain hook runs on service worker threads: push the id into the
  // mailbox and kick the loop awake. It must never touch epoll or
  // connection state directly.
  service_.SetQueueDrainHook([this](uint64_t server_id) {
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      if (std::find(pending_drains_.begin(), pending_drains_.end(),
                    server_id) == pending_drains_.end()) {
        pending_drains_.push_back(server_id);
      }
    }
    uint64_t kick = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &kick, sizeof(kick));
  });
  running_.store(true);
  loop_ = std::thread([this] { EventLoop(); });
  return true;
}

void TcpFrontEnd::Stop() {
  if (loop_.joinable()) {
    // Detach the hook first: SetQueueDrainHook serializes against any
    // in-flight invocation, so after this line no worker thread can
    // touch the mailbox or wake_fd_ again.
    service_.SetQueueDrainHook(nullptr);
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      stop_requested_ = true;
    }
    uint64_t kick = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &kick, sizeof(kick));
    loop_.join();
  }
  for (auto& [fd, conn] : conns_) {
    int fd_copy = fd;
    CloseFd(fd_copy);
    stats_.connections_closed->Increment();
  }
  conns_.clear();
  CloseFd(listen_fd_);
  CloseFd(epoll_fd_);
  CloseFd(wake_fd_);
  running_.store(false);
}

TcpFrontEndStats TcpFrontEnd::stats() const {
  TcpFrontEndStats out;
  out.connections_accepted =
      stats_.connections_accepted->value();
  out.connections_closed =
      stats_.connections_closed->value();
  out.connections_rejected =
      stats_.connections_rejected->value();
  out.idle_closes = stats_.idle_closes->value();
  out.protocol_errors =
      stats_.protocol_errors->value();
  out.messages_routed =
      stats_.messages_routed->value();
  out.responses_sent = stats_.responses_sent->value();
  out.bytes_received = stats_.bytes_received->value();
  out.bytes_sent = stats_.bytes_sent->value();
  out.read_pauses = stats_.read_pauses->value();
  out.read_resumes = stats_.read_resumes->value();
  return out;
}

void TcpFrontEnd::EventLoop() {
  epoll_event events[kMaxEvents];
  const int timeout_ms = config_.idle_timeout_ms > 0
                             ? static_cast<int>(std::min<int64_t>(
                                   config_.idle_timeout_ms, kIdleTickMs))
                             : -1;
  while (true) {
    int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t n =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this round
      Connection& conn = *it->second;
      if ((mask & EPOLLOUT) != 0) {
        HandleWritable(conn);
        if (!conns_.contains(fd)) continue;
      }
      if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        HandleReadable(conn);
      }
    }
    // Drain notifications and the stop flag arrive via the mailbox.
    bool stop = false;
    drains_.clear();
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      drains_.swap(pending_drains_);
      stop = stop_requested_;
    }
    for (uint64_t server_id : drains_) ResumePaused(server_id);
    if (stop) break;
    if (config_.idle_timeout_ms > 0) SweepIdle();
  }
}

void TcpFrontEnd::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: try next round
    }
    if (conns_.size() >= config_.max_connections) {
      ::close(fd);
      stats_.connections_rejected->Increment();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(pool_, config_.max_message_bytes);
    conn->fd = fd;
    conn->last_activity_ns = obs::NowNanos();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    stats_.connections_accepted->Increment();
  }
}

void TcpFrontEnd::HandleReadable(Connection& conn) {
  if (conn.peer_eof) {  // spurious HUP after EOF already observed
    MaybeFinishClose(conn);
    return;
  }
  if (conn.paused) {
    // EPOLLIN is off, so this is a hang-up or an error. Nothing can be
    // read past the parked frame: stop watching the fd until it routes
    // (ResumePaused re-adds it) rather than spin on a level-triggered
    // event.
    if (conn.in_epoll) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      conn.in_epoll = false;
    }
    return;
  }
  // Receive straight into the framer's slab and route after every recv,
  // so a slab switch only ever carries a partial frame. Reactor time is
  // split into recv and route and recorded once for the whole event.
  const int fd = conn.fd;
  uint64_t recv_ns = 0;
  uint64_t route_ns = 0;
  uint64_t mark = obs::NowNanos();
  bool open = true;
  while (!conn.paused) {
    const std::span<uint8_t> room = conn.framer.WritableSpan();
    const ssize_t n = ::recv(fd, room.data(), room.size(), 0);
    const uint64_t received = obs::NowNanos();
    recv_ns += received - mark;
    mark = received;
    if (n > 0) {
      conn.framer.Commit(static_cast<size_t>(n));
      stats_.bytes_received->Add(static_cast<uint64_t>(n));
      conn.last_activity_ns = received;
      open = RouteFrames(conn);
      const uint64_t routed = obs::NowNanos();
      route_ns += routed - mark;
      mark = routed;
      if (!open || static_cast<size_t>(n) < room.size()) break;  // drained
      continue;
    }
    if (n == 0) {
      // Peer EOF (close or shutdown(SHUT_WR)): stop reading; every
      // complete frame is already routed, responses flush, then close.
      conn.peer_eof = true;
      UpdateEpoll(conn, /*want_read=*/false);
      break;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      CloseConnection(fd);  // ECONNRESET and friends
      open = false;
    }
    break;
  }
  stats_.recv_ns->Record(recv_ns);
  stats_.route_ns->Record(route_ns);
  if (open) FinishRouting(conn);
}

bool TcpFrontEnd::RouteFrames(Connection& conn) {
  std::vector<uint8_t> response;
  while (true) {
    uint64_t blocked_server = 0;
    switch (conn.framer.RouteNext(service_, &response, &blocked_server)) {
      case SlabFramer::Step::kNeedMore:
        return true;
      case SlabFramer::Step::kBadFrame:
        // Bad magic or an oversized declared length: the byte stream
        // cannot be resynchronized.
        stats_.protocol_errors->Increment();
        CloseConnection(conn.fd);
        return false;
      case SlabFramer::Step::kWouldBlock:
        // Backpressure: the frame stays parked at the head of its slab;
        // stop reading this connection and let the kernel socket buffer
        // (and the client's send window) absorb the pressure until the
        // server's strand drains. A parked frame that blocks again on
        // resume is the same pause, not a new one.
        conn.paused_server = blocked_server;
        if (!conn.paused) {
          conn.paused = true;
          stats_.read_pauses->Increment();
          UpdateEpoll(conn, /*want_read=*/false);
        }
        return true;
      case SlabFramer::Step::kRouted:
        break;
    }
    stats_.messages_routed->Increment();
    if (conn.paused) {
      conn.paused = false;
      stats_.read_resumes->Increment();
      conn.last_activity_ns = obs::NowNanos();
      UpdateEpoll(conn, /*want_read=*/!conn.peer_eof);
    }
    if (!response.empty()) {
      conn.write_queue.push_back(std::move(response));
      stats_.responses_sent->Increment();
      if (!FlushWrites(conn)) return false;
    }
  }
}

void TcpFrontEnd::FinishRouting(Connection& conn) {
  if (conn.paused) return;
  if (conn.peer_eof && conn.framer.buffered() != 0) {
    // Trailing bytes that can never complete a message: the peer hung
    // up mid-frame.
    stats_.protocol_errors->Increment();
    CloseConnection(conn.fd);
    return;
  }
  conn.framer.ReleaseIfIdle();
  MaybeFinishClose(conn);
}

void TcpFrontEnd::ResumePaused(uint64_t server_id) {
  // Snapshot first: routing can close or re-pause connections, and both
  // mutate the table we are walking.
  resume_candidates_.clear();
  for (const auto& [fd, conn] : conns_) {
    if (conn->paused && conn->paused_server == server_id) {
      resume_candidates_.push_back(fd);
    }
  }
  for (int fd : resume_candidates_) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    if (!conn.paused || conn.paused_server != server_id) continue;
    const uint64_t start = obs::NowNanos();
    const bool open = RouteFrames(conn);
    stats_.route_ns->Record(obs::NowNanos() - start);
    if (open) FinishRouting(conn);
  }
}

bool TcpFrontEnd::FlushWrites(Connection& conn) {
  while (!conn.write_queue.empty()) {
    const std::vector<uint8_t>& front = conn.write_queue.front();
    while (conn.write_pos < front.size()) {
      ssize_t n = ::send(conn.fd, front.data() + conn.write_pos,
                         front.size() - conn.write_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.write_pos += static_cast<size_t>(n);
        stats_.bytes_sent->Add(static_cast<uint64_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) {
          conn.want_write = true;
          UpdateEpoll(conn, /*want_read=*/!conn.paused && !conn.peer_eof);
        }
        return true;
      }
      CloseConnection(conn.fd);  // EPIPE/ECONNRESET: peer is gone
      return false;
    }
    conn.write_queue.pop_front();
    conn.write_pos = 0;
  }
  if (conn.want_write) {
    conn.want_write = false;
    UpdateEpoll(conn, /*want_read=*/!conn.paused && !conn.peer_eof);
  }
  return true;
}

void TcpFrontEnd::HandleWritable(Connection& conn) {
  if (FlushWrites(conn)) MaybeFinishClose(conn);
}

void TcpFrontEnd::UpdateEpoll(Connection& conn, bool want_read) {
  const uint32_t mask =
      (want_read ? EPOLLIN : 0u) | (conn.want_write ? EPOLLOUT : 0u);
  if (mask == 0 && conn.peer_eof) {
    if (conn.in_epoll) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      conn.in_epoll = false;
    }
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn.fd;
  if (conn.in_epoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  } else if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) == 0) {
    conn.in_epoll = true;
  }
}

void TcpFrontEnd::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second->in_epoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  ::close(fd);
  conns_.erase(it);
  stats_.connections_closed->Increment();
}

void TcpFrontEnd::MaybeFinishClose(Connection& conn) {
  if (conn.peer_eof && !conn.paused && conn.framer.buffered() == 0 &&
      conn.write_queue.empty()) {
    CloseConnection(conn.fd);
  }
}

void TcpFrontEnd::SweepIdle() {
  const uint64_t now = obs::NowNanos();
  const uint64_t limit =
      static_cast<uint64_t>(config_.idle_timeout_ms) * 1'000'000;
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    // A paused connection is waiting on the service, not the client;
    // its clock restarts when it resumes.
    if (!conn->paused && now - conn->last_activity_ns > limit) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    stats_.idle_closes->Increment();
    CloseConnection(fd);
  }
}

}  // namespace ldp::net
