// libFuzzer harness for the TCP front end's read path: the slab framer
// under fuzzed split schedules, checked against one-shot HandleMessage.

#include "fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return ldp::fuzz::FuzzTcpFraming(data, size);
}
