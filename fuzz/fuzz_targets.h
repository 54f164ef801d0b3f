// Fuzz entry points for the wire-protocol report path.
//
// Each function has the libFuzzer TestOneInput contract — consume
// arbitrary bytes, return 0, and crash (trap) only on a genuine bug —
// but lives in a plain static library so the same code runs under three
// harnesses:
//
//   * libFuzzer executables (fuzz/fuzz_*.cc, clang -fsanitize=fuzzer),
//   * the standalone file-replay driver (fuzz/standalone_driver.cc, any
//     compiler — used on toolchains without libFuzzer),
//   * the deterministic corpus-replay GoogleTest
//     (tests/fuzz_regression_test.cc), which turns every checked-in
//     corpus file into a permanent CTest regression.
//
// The targets assert parser totality (never crash, never read OOB — the
// sanitizers see to that) and semantic invariants: whatever parses must
// be in-spec, and a server that ingested arbitrary bytes must still
// finalize and answer queries with finite numbers.

#ifndef LDPRANGE_FUZZ_FUZZ_TARGETS_H_
#define LDPRANGE_FUZZ_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace ldp::fuzz {

/// DecodeEnvelope plus every typed parser (single, batch, oracle
/// reports, stats plane, and the distributed fan-in state plane) over
/// the same bytes; a snapshot that frames is additionally pushed
/// through MergeSerializedState on one server of every mechanism
/// family.
int FuzzDecodeEnvelope(const uint8_t* data, size_t size);

/// FlatHrrServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize.
int FuzzFlatAbsorb(const uint8_t* data, size_t size);

/// HaarHrrServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize.
int FuzzHaarAbsorb(const uint8_t* data, size_t size);

/// TreeHrrServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize.
int FuzzTreeAbsorb(const uint8_t* data, size_t size);

/// AheadServer across both phase eras: absorb before BuildTree (phase-1
/// era), again after (phase-2 era), batch ingest, ParseAheadTree
/// totality, then Finalize + query.
int FuzzAheadAbsorb(const uint8_t* data, size_t size);

/// MultiDimServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize +
/// box query, plus totality of the multidim report/batch/query parsers.
int FuzzMultiDimAbsorb(const uint8_t* data, size_t size);

/// AggregatorService fed the bytes as a concatenated inbound message
/// stream (stream begin/chunk/end, query requests, junk): session
/// bookkeeping must stay consistent, every enqueued chunk must drain,
/// and both hosted servers must still finalize and answer a wire query
/// with a parseable, non-NaN response.
int FuzzStreamSession(const uint8_t* data, size_t size);

/// The TCP front end's SlabFramer fed a byte stream in a fuzzed split
/// schedule (one "recv" of 1 byte to three slabs, at a fuzzed slab size):
/// every response, every counter and the final answers must equal
/// one-shot HandleMessage of the same frames, and a framing violation or
/// trailing partial frame must be seen at the same byte.
int FuzzTcpFraming(const uint8_t* data, size_t size);

}  // namespace ldp::fuzz

#endif  // LDPRANGE_FUZZ_FUZZ_TARGETS_H_
