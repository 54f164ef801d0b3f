#include "protocol/wire.h"

#include <bit>

#include "common/check.h"

namespace ldp::protocol {

void AppendU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendF64(std::vector<uint8_t>& out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

void AppendVarU64(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

void AppendLengthPrefixedBytes(std::vector<uint8_t>& out,
                               std::span<const uint8_t> bytes) {
  LDP_CHECK_LE(bytes.size(), size_t{UINT32_MAX});
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

bool WireReader::Take(size_t n, const uint8_t** p) {
  // Remaining() (not position_ + n) so a huge forged n cannot wrap.
  if (!ok_ || n > Remaining()) {
    ok_ = false;
    return false;
  }
  *p = bytes_.data() + position_;
  position_ += n;
  return true;
}

bool WireReader::ReadU8(uint8_t* v) {
  const uint8_t* p = nullptr;
  if (!Take(1, &p)) return false;
  *v = p[0];
  return true;
}

bool WireReader::ReadU32(uint32_t* v) {
  const uint8_t* p = nullptr;
  if (!Take(4, &p)) return false;
  *v = LoadU32(p);
  return true;
}

bool WireReader::ReadU64(uint64_t* v) {
  const uint8_t* p = nullptr;
  if (!Take(8, &p)) return false;
  *v = LoadU64(p);
  return true;
}

bool WireReader::ReadF64(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool WireReader::ReadVarU64(uint64_t* v) {
  if (!ok_) return false;
  uint64_t out = 0;
  for (int i = 0; i < 10; ++i) {
    const uint8_t* p = nullptr;
    if (!Take(1, &p)) return false;
    uint8_t byte = *p;
    // Byte 10 holds bits 63..69: anything beyond bit 63 overflows u64.
    if (i == 9 && byte > 0x01) {
      ok_ = false;
      return false;
    }
    out |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  ok_ = false;  // unterminated group sequence
  return false;
}

bool WireReader::ReadBytes(size_t n, std::span<const uint8_t>* out) {
  const uint8_t* p = nullptr;
  if (!Take(n, &p)) return false;
  *out = std::span<const uint8_t>(p, n);
  return true;
}

bool WireReader::ReadLengthPrefixedBytes(std::span<const uint8_t>* out) {
  uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  return ReadBytes(len, out);
}

}  // namespace ldp::protocol
