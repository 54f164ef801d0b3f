// Per-session stream reassembly state for the aggregator service.
//
// An IngestSession tracks which chunk sequence numbers of one streaming
// session have been admitted, so duplicate chunks (a retrying client, a
// replaying middlebox) are dropped instead of double-counted, and so the
// kStreamEnd completeness check — did every declared chunk arrive? — is
// exact even under arbitrary reordering. It holds no report bytes and no
// mechanism state; chunk payloads flow straight to the target server's
// ingestion queue. The admitted set is a bitmap that doubles up to the
// highest sequence seen, so admitting a chunk allocates only when the
// sequence outgrows it (log2 times per session at most).

#ifndef LDPRANGE_SERVICE_INGEST_SESSION_H_
#define LDPRANGE_SERVICE_INGEST_SESSION_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace ldp::service {

/// Outcome of an IngestSession::End declaration.
enum class EndResult : uint8_t {
  kOk = 0,
  kAlreadyEnded,  // a replayed kStreamEnd; the first declaration stands
  // The declaration names more chunks than AdmitChunk will ever accept
  // (> kMaxSequences), so completeness would be silently impossible.
  // The declaration is rejected and the session stays live: a retry with
  // an honest count can still end it.
  kOversizedDeclaration,
};

class IngestSession {
 public:
  /// Hard cap on distinct chunk sequences per session. Honest streams
  /// number chunks 0..count-1, so this allows ~500M reports per session
  /// at typical chunk sizes while bounding what chunk spam on one
  /// never-ending session can pin in the dedupe bitmap (8 KiB at the
  /// cap). Sequences at or past the cap are rejected, never admitted.
  static constexpr uint64_t kMaxSequences = uint64_t{1} << 16;

  IngestSession(uint64_t session_id, uint64_t server_id)
      : session_id_(session_id), server_id_(server_id) {}

  uint64_t session_id() const { return session_id_; }
  uint64_t server_id() const { return server_id_; }

  /// True when AdmitChunk(sequence) would admit: the session is live,
  /// the sequence is in policy and not yet seen. Const — the peek a
  /// non-blocking caller uses to decide whether a full queue is worth
  /// pausing for before anything is recorded.
  bool CanAdmit(uint64_t sequence) const {
    return !ended_ && sequence < kMaxSequences && !Seen(sequence);
  }

  /// Admits chunk `sequence`: true when it is new (caller should enqueue
  /// its payload), false for a duplicate, an out-of-policy sequence
  /// (>= kMaxSequences), or a chunk after the session ended (caller
  /// should drop it).
  bool AdmitChunk(uint64_t sequence) {
    if (ended_ || sequence >= kMaxSequences || Seen(sequence)) return false;
    const size_t word = static_cast<size_t>(sequence / 64);
    if (word >= seen_.size()) {
      seen_.resize(std::max(2 * seen_.size(), std::bit_ceil(word + 1)));
    }
    seen_[word] |= uint64_t{1} << (sequence % 64);
    ++admitted_;
    if (admitted_ == 1 || sequence > max_sequence_) max_sequence_ = sequence;
    return true;
  }

  /// Records the kStreamEnd declaration. Completeness is decided here —
  /// the admitted sequences are exactly {0, ..., chunk_count - 1} iff
  /// the set holds `chunk_count` distinct values with maximum
  /// chunk_count - 1 — and the sequence bitmap is then released: it exists
  /// only for pre-end dedupe, and a long-lived service holds many ended
  /// sessions. A declaration no stream can satisfy (chunk_count >
  /// kMaxSequences) is rejected with kOversizedDeclaration instead of
  /// silently landing the session in the incomplete bucket.
  EndResult End(uint64_t chunk_count, uint8_t flags) {
    if (ended_) return EndResult::kAlreadyEnded;
    if (chunk_count > kMaxSequences) return EndResult::kOversizedDeclaration;
    ended_ = true;
    declared_chunks_ = chunk_count;
    flags_ = flags;
    complete_ = declared_chunks_ == 0
                    ? admitted_ == 0
                    : (admitted_ == declared_chunks_ &&
                       max_sequence_ == declared_chunks_ - 1);
    std::vector<uint64_t>().swap(seen_);
    return EndResult::kOk;
  }

  bool ended() const { return ended_; }
  uint8_t flags() const { return flags_; }
  uint64_t chunks_admitted() const { return admitted_; }
  uint64_t declared_chunks() const { return declared_chunks_; }

  /// True iff the session ended with every declared chunk admitted.
  bool complete() const { return ended_ && complete_; }

 private:
  bool Seen(uint64_t sequence) const {
    const size_t word = static_cast<size_t>(sequence / 64);
    return word < seen_.size() && ((seen_[word] >> (sequence % 64)) & 1) != 0;
  }

  uint64_t session_id_;
  uint64_t server_id_;
  // Bit s of word s / 64 is set once sequence s is admitted; released
  // at End().
  std::vector<uint64_t> seen_;
  uint64_t admitted_ = 0;
  // Only meaningful once a chunk has been admitted (admitted_ > 0).
  uint64_t max_sequence_ = 0;
  uint64_t declared_chunks_ = 0;
  uint8_t flags_ = 0;
  bool ended_ = false;
  bool complete_ = false;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_INGEST_SESSION_H_
