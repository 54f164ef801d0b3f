// The one wire codec for fixed-width user reports.
//
// Every method in the paper sends one fixed-width report per user: a
// sampled level (TreeHRR, HaarHRR) or level tuple (the Section 6 grid)
// plus one oracle report. A report family describes its bytes as a small
// Layout, and this header derives everything else from it:
//
//   single  envelope(tag)        [header][item]
//   batch   envelope(batch tag)  [header][count varint][count x item]
//
// A Layout declares
//
//   using Item = ...;                                the decoded report
//   MechanismTag tag() const;                        single-report tag
//   MechanismTag batch_tag() const;                  batch tag
//   size_t item_size() const;                        fixed item width
//   void Append(std::vector<uint8_t>&, const Item&) const;
//   bool Decode(const uint8_t* slot, Item*) const;
//
// and, optionally, a header written before the item or the count:
//
//   void AppendHeader(std::vector<uint8_t>&) const;
//   bool ReadHeader(WireReader&);     // validates; may set item_size()
//
// Decode reads one item_size() slot at fixed offsets — the callers have
// already checked that the bytes are there — and reports whether the
// item is well formed; it never advances anything, so a batch stays
// aligned past a malformed item. Range checks against a server's shape
// are the server's Accept, not the layout's.
//
// ReportServer is the matching server side: it implements
// AggregatorServer's serialized ingestion for any server with a
// non-virtual Accept(Item) that checks and folds one report, decoding
// batch items straight out of the caller's buffer — no staging vector,
// no per-report virtual call — and owns the accept/reject accounting:
// one counter update per message, not per report.
//
// Every parser here is total over arbitrary bytes.

#ifndef LDPRANGE_PROTOCOL_REPORT_CODEC_H_
#define LDPRANGE_PROTOCOL_REPORT_CODEC_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "protocol/envelope.h"
#include "protocol/wire.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

namespace report_codec_internal {

template <typename Layout>
concept HasHeader = requires(const Layout& layout, Layout& reading,
                             std::vector<uint8_t>& out, WireReader& reader) {
  layout.AppendHeader(out);
  { reading.ReadHeader(reader) } -> std::same_as<bool>;
};

// Starts a message whose payload_len is patched in by Seal.
template <typename Layout>
std::vector<uint8_t> Open(const Layout& layout, MechanismTag tag,
                          size_t payload_hint) {
  std::vector<uint8_t> out;
  out.reserve(kEnvelopeHeaderSize + payload_hint);
  AppendEnvelopeHeader(out, tag, 0);
  if constexpr (HasHeader<Layout>) layout.AppendHeader(out);
  return out;
}

inline std::vector<uint8_t> Seal(std::vector<uint8_t> out) {
  const auto payload_len =
      static_cast<uint32_t>(out.size() - kEnvelopeHeaderSize);
  for (int i = 0; i < 4; ++i) {
    out[4 + i] = static_cast<uint8_t>(payload_len >> (8 * i));
  }
  return out;
}

// Decodes the envelope and checks its tag.
inline ParseError Enter(MechanismTag tag, std::span<const uint8_t> bytes,
                        Envelope* env) {
  ParseError err = DecodeEnvelope(bytes, env);
  if (err != ParseError::kOk) return err;
  return env->mechanism == tag ? ParseError::kOk : ParseError::kBadPayload;
}

template <typename Layout>
bool ReadHeader(Layout& layout, WireReader& reader) {
  if constexpr (HasHeader<Layout>) return layout.ReadHeader(reader);
  return true;
}

}  // namespace report_codec_internal

/// One framed single-report message under layout.tag().
template <typename Layout>
std::vector<uint8_t> SerializeReport(const Layout& layout,
                                     const typename Layout::Item& item) {
  // The reserve hint leaves room for a header of at most one byte.
  std::vector<uint8_t> out =
      report_codec_internal::Open(layout, layout.tag(), 1 + layout.item_size());
  layout.Append(out, item);
  return report_codec_internal::Seal(std::move(out));
}

/// Parses a single-report message: kBadPayload on a foreign tag, a bad
/// header, a payload that is not exactly one item, or an item that fails
/// the layout's validation.
template <typename Layout>
ParseError ParseReport(Layout layout, std::span<const uint8_t> bytes,
                       typename Layout::Item* item) {
  Envelope env;
  ParseError err = report_codec_internal::Enter(layout.tag(), bytes, &env);
  if (err != ParseError::kOk) return err;
  WireReader reader(env.payload);
  std::span<const uint8_t> slot;
  if (!report_codec_internal::ReadHeader(layout, reader) ||
      reader.Remaining() != layout.item_size() ||
      !reader.ReadBytes(layout.item_size(), &slot)) {
    return ParseError::kBadPayload;
  }
  typename Layout::Item out{};
  if (!layout.Decode(slot.data(), &out)) return ParseError::kBadPayload;
  *item = std::move(out);
  return ParseError::kOk;
}

/// One framed batch message under layout.batch_tag().
template <typename Layout>
std::vector<uint8_t> SerializeReportBatch(
    const Layout& layout, std::span<const typename Layout::Item> items) {
  // Room for a header of at most one byte and a count of at most ten.
  std::vector<uint8_t> out = report_codec_internal::Open(
      layout, layout.batch_tag(), 11 + items.size() * layout.item_size());
  AppendVarU64(out, items.size());
  for (const auto& item : items) layout.Append(out, item);
  return report_codec_internal::Seal(std::move(out));
}

/// The in-place batch path. Validates the whole message first —
/// envelope, batch tag, header, and count x item_size() equal to the
/// bytes present — so a structural failure visits nothing. Then decodes
/// each item out of `bytes` and calls visit(item) for every item that
/// reads, counting the rest in `*malformed` (may be null).
template <typename Layout, typename Visit>
ParseError VisitReportBatch(Layout layout, std::span<const uint8_t> bytes,
                            Visit&& visit, uint64_t* malformed = nullptr) {
  Envelope env;
  ParseError err =
      report_codec_internal::Enter(layout.batch_tag(), bytes, &env);
  if (err != ParseError::kOk) return err;
  WireReader reader(env.payload);
  uint64_t count = 0;
  if (!report_codec_internal::ReadHeader(layout, reader) ||
      !reader.ReadVarU64(&count)) {
    return ParseError::kBadPayload;
  }
  // Bound count before the exact-size check so count * item_size cannot
  // wrap.
  const size_t item_size = layout.item_size();
  std::span<const uint8_t> slots;
  if (count > reader.Remaining() / item_size ||
      reader.Remaining() != count * item_size ||
      !reader.ReadBytes(reader.Remaining(), &slots)) {
    return ParseError::kBadPayload;
  }
  uint64_t bad = 0;
  typename Layout::Item item{};
  for (const uint8_t* slot = slots.data(); slot != slots.data() + slots.size();
       slot += item_size) {
    if (layout.Decode(slot, &item)) {
      visit(std::as_const(item));
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return ParseError::kOk;
}

/// Parses a batch message into `items` (VisitReportBatch's rules).
template <typename Layout>
ParseError ParseReportBatch(const Layout& layout,
                            std::span<const uint8_t> bytes,
                            std::vector<typename Layout::Item>* items,
                            uint64_t* malformed = nullptr) {
  items->clear();
  return VisitReportBatch(
      layout, bytes,
      [items](const typename Layout::Item& item) { items->push_back(item); },
      malformed);
}

/// AggregatorServer's serialized ingestion for a server whose reports use
/// `Layout`. `Server` (the most-derived report owner, CRTP) provides a
/// non-virtual `bool Accept(const Layout::Item&)` that checks one report
/// and folds it into the aggregate, with no accounting, and may hide
/// report_layout() when its layout has state (the tag of a level-HRR
/// server). Accept may be private if `Server` befriends its ReportServer.
///
/// Accounting is ReportServer's: Absorb counts its one report; a message
/// that fails to parse, or a batch that fails structurally, counts one
/// rejection; a batch adds its accepted and rejected totals (malformed
/// slots plus refused items) once, after the whole message.
template <typename Server, typename Layout,
          typename Base = service::AggregatorServer>
class ReportServer : public Base {
  using Item = typename Layout::Item;

 public:
  Layout report_layout() const { return Layout{}; }

  /// Ingests one decoded report; false (counted as a rejection) when the
  /// server refuses it.
  bool Absorb(const Item& item) {
    const bool ok = self().Accept(item);
    if (ok) {
      this->stats_.CountAccepted();
    } else {
      this->stats_.CountRejected();
    }
    return ok;
  }

  bool AbsorbSerialized(std::span<const uint8_t> bytes) final {
    Item item{};
    if (ParseReport(self().report_layout(), bytes, &item) != ParseError::kOk) {
      this->stats_.CountRejected();
      return false;
    }
    return Absorb(item);
  }

 protected:
  using Base::Base;

  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                     uint64_t* accepted) final {
    uint64_t ok = 0;
    uint64_t decoded = 0;
    uint64_t malformed = 0;
    ParseError err = VisitReportBatch(
        self().report_layout(), bytes,
        [this, &ok, &decoded](const Item& item) {
          ++decoded;
          ok += self().Accept(item) ? 1 : 0;
        },
        &malformed);
    if (err == ParseError::kOk) {
      this->stats_.CountAccepted(ok);
      this->stats_.CountRejected(malformed + (decoded - ok));
    } else {
      this->stats_.CountRejected();
    }
    if (accepted != nullptr) *accepted = ok;
    return err;
  }

 private:
  Server& self() { return static_cast<Server&>(*this); }
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_REPORT_CODEC_H_
