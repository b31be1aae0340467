// Golden-file pin of the on-disk "CPRFIB06" arena layout.
//
// ArenaStore publishes these blobs as files that *other processes* —
// possibly running older or newer builds — mmap and serve, so the byte
// layout is a wire format now, not an implementation detail. This test
// builds a small hand-specified Cowen arena and compares it
// byte-for-byte against tests/golden/cowen_small_v6.hex (and a kTz arena
// against tests/golden/tz_small_v6.hex); it also spells
// out the header field offsets, little-endian encoding, and 64-byte
// section alignment as direct assertions, so a diff here tells the
// reader exactly which layout promise broke. Any intentional change to
// the format must bump the magic version and regenerate the golden file
// (run with CPR_UPDATE_GOLDEN=1) — silently shifting bytes would make
// every published arena in a fleet unreadable or, worse, misread.
//
// Older magics (CPRFIB02/03/04/05) are not read at all: the loader rejects
// them with an error that names the magic and asks for a recompile.
#include "fib/flat_fib.hpp"
#include "fib/forward_engine.hpp"
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cpr {
namespace {

#ifndef CPR_GOLDEN_DIR
#error "CPR_GOLDEN_DIR must point at tests/golden"
#endif

const std::string kGoldenPath =
    std::string(CPR_GOLDEN_DIR) + "/cowen_small_v6.hex";
const std::string kGoldenTzPath =
    std::string(CPR_GOLDEN_DIR) + "/tz_small_v6.hex";

// The golden arena: a 3-node path 0-1-2 with fully hand-written Cowen
// sections (capacity 2 per row, node 1 as everyone's landmark). Every
// byte of the result is determined by this function and the format —
// no scheme construction, no RNG — so the golden file pins exactly the
// serialization layer. Rows are written in Eytzinger order: a two-entry
// row stores its larger key at slot 0 (the root) and the smaller at
// slot 1 (the root's left child).
FlatFib build_golden_fib() {
  Graph g(3);
  g.add_edge(0, 1);  // edge 0: port 0 at both ends
  g.add_edge(1, 2);  // edge 1: port 1 at node 1, port 0 at node 2
  FibBuilder b(FibKind::kCowen, 3);
  b.add_topology(g);
  const std::vector<std::uint32_t> row_off = {0, 2, 4, 6};  // capacity CSR
  const std::vector<std::uint32_t> row_len = {1, 2, 1};
  const std::vector<std::uint64_t> rows = {
      fib_pack_entry(1, 0), 0,                          // node 0 (+slack)
      fib_pack_entry(2, 1), fib_pack_entry(0, 0),       // node 1
      fib_pack_entry(1, 0), 0,                          // node 2 (+slack)
  };
  const std::vector<std::uint32_t> landmark = {1, 1, 1};
  const std::vector<std::uint32_t> landmark_port = {0, kInvalidPort, 0};
  b.add_array(fib_section::kCowenRowOff, row_off);
  b.add_array(fib_section::kCowenRowLen, row_len);
  b.add_array(fib_section::kCowenRows, rows);
  b.add_array(fib_section::kCowenLandmark, landmark);
  b.add_array(fib_section::kCowenLandmarkPort, landmark_port);
  return b.finish();
}

// The kTz golden arena: the same 3-node path, lifted to the
// name-independent kTz kind with the hand-picked label permutation
// node 0 → 2, node 1 → 0, node 2 → 1. Rows are re-keyed by label (and
// laid out in Eytzinger order), the landmark arrays are indexed by
// label, and the two label
// sections pin their wire format: the label map and the bucketed
// name → label dictionary (one bucket of capacity 4 at n = 3, exactly
// what fib_dict_bucket_count sizes).
FlatFib build_golden_tz_fib() {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  FibBuilder b(FibKind::kTz, 3);
  b.add_topology(g);
  const std::vector<std::uint32_t> row_off = {0, 2, 4, 6};  // capacity CSR
  const std::vector<std::uint32_t> row_len = {1, 2, 1};
  const std::vector<std::uint64_t> rows = {
      fib_pack_entry(0, 0), 0,                     // node 0: landmark's label
      fib_pack_entry(2, 0), fib_pack_entry(1, 1),  // node 1: both neighbors
      fib_pack_entry(0, 0), 0,                     // node 2
  };
  // Indexed by label: every label's landmark is node 1 (label 0); the
  // port toward it from node_of(label) — node 1 itself has none.
  const std::vector<std::uint32_t> landmark = {0, 0, 0};
  const std::vector<std::uint32_t> landmark_port = {kInvalidPort, 0, 0};
  const std::vector<std::uint32_t> label_of = {2, 0, 1};
  const std::vector<std::uint64_t> dictionary = {
      1, 4,  // bucket_count, bucket_cap
      fib_pack_entry(0, 2), fib_pack_entry(1, 0), fib_pack_entry(2, 1),
      kFibDictEmpty,
  };
  b.add_array(fib_section::kCowenRowOff, row_off);
  b.add_array(fib_section::kCowenRowLen, row_len);
  b.add_array(fib_section::kCowenRows, rows);
  b.add_array(fib_section::kCowenLandmark, landmark);
  b.add_array(fib_section::kCowenLandmarkPort, landmark_port);
  b.add_array(fib_section::kLabelMap, label_of);
  b.add_array(fib_section::kDictionary, dictionary);
  return b.finish();
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2 + bytes.size() / 32 + 1);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i > 0 && i % 32 == 0) out.push_back('\n');
    out.push_back(digits[bytes[i] >> 4]);
    out.push_back(digits[bytes[i] & 0xf]);
  }
  out.push_back('\n');
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& text) {
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::vector<std::uint8_t> bytes;
  int hi = -1;
  for (const char c : text) {
    const int v = nibble(c);
    if (v < 0) continue;  // whitespace/newlines
    if (hi < 0) {
      hi = v;
    } else {
      bytes.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  return bytes;
}

template <typename T>
T read_le(std::span<const std::uint8_t> blob, std::size_t offset) {
  T v{};
  std::memcpy(&v, blob.data() + offset, sizeof(T));
  return v;
}

TEST(BlobLayout, GoldenFileMatchesByteForByte) {
  const FlatFib fib = build_golden_fib();
  const auto blob = fib.blob();

  if (std::getenv("CPR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << to_hex(blob);
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << " (generate with CPR_UPDATE_GOLDEN=1)";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::vector<std::uint8_t> golden = from_hex(text);

  ASSERT_EQ(blob.size(), golden.size())
      << "CPRFIB06 blob size changed — this is a wire-format break; bump "
         "the version and regenerate the golden file deliberately";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(blob[i], golden[i])
        << "CPRFIB06 byte " << i << " changed — wire-format break; bump "
           "the version and regenerate the golden file deliberately";
  }
}

TEST(BlobLayout, GoldenBytesReopenAndServe) {
  std::ifstream in(kGoldenPath);
  if (!in) GTEST_SKIP() << "golden file not generated yet";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::vector<std::uint8_t> golden = from_hex(text);

  // Yesterday's bytes must open under today's validator and route: the
  // path graph delivers 0 -> 2 through the landmark at 1.
  const FlatFib fib = FlatFib::from_blob({golden.data(), golden.size()});
  EXPECT_EQ(fib.kind(), FibKind::kCowen);
  EXPECT_EQ(fib.node_count(), 3u);
  const std::vector<std::pair<NodeId, NodeId>> queries = {
      {0, 2}, {2, 0}, {0, 1}, {1, 0}};
  const FibBatchOutput out = forward_batch(fib, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(out.results[i].delivered) << "query " << i;
  }
  const auto p = out.path(0);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[1], 1u);
  EXPECT_EQ(p[2], 2u);
}

// The kTz pin: same update discipline as the Cowen golden, covering the
// label sections (label map, dictionary) no other kind carries.
TEST(BlobLayout, TzGoldenFileMatchesByteForByte) {
  const FlatFib fib = build_golden_tz_fib();
  const auto blob = fib.blob();

  if (std::getenv("CPR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenTzPath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kGoldenTzPath;
    out << to_hex(blob);
    GTEST_SKIP() << "golden file regenerated at " << kGoldenTzPath;
  }

  std::ifstream in(kGoldenTzPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenTzPath
                  << " (generate with CPR_UPDATE_GOLDEN=1)";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::vector<std::uint8_t> golden = from_hex(text);

  ASSERT_EQ(blob.size(), golden.size())
      << "CPRFIB06 kTz blob size changed — wire-format break; bump the "
         "version and regenerate the golden file deliberately";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(blob[i], golden[i])
        << "CPRFIB06 kTz byte " << i << " changed — wire-format break; "
           "bump the version and regenerate the golden file deliberately";
  }
}

// kTz header + directory shape, and the name-addressed routes: names
// resolve through the dictionary, forwarding runs in label space, and
// the path graph still delivers 0 → 2 through the landmark at node 1.
TEST(BlobLayout, TzGoldenBytesReopenAndServe) {
  const FlatFib fib = build_golden_tz_fib();
  const auto blob = fib.blob();
  ASSERT_GE(blob.size(), 40u);
  EXPECT_EQ(std::memcmp(blob.data(), "CPRFIB06", 8), 0);
  EXPECT_EQ(read_le<std::uint32_t>(blob, 8), 6u);  // kind = kTz
  // 3 topology + 5 cowen + label map + dictionary.
  EXPECT_EQ(read_le<std::uint32_t>(blob, 16), 10u);

  const FlatFib reopened = FlatFib::from_blob({blob.data(), blob.size()});
  EXPECT_EQ(reopened.blob_version(), 6u);
  EXPECT_EQ(reopened.kind(), FibKind::kTz);
  const std::vector<std::pair<NodeId, NodeId>> queries = {
      {0, 2}, {2, 0}, {0, 1}, {1, 0}};
  for (const FibDispatch mode : {FibDispatch::kScalar, FibDispatch::kSimd}) {
    FibBatchOptions opt;
    opt.dispatch = mode;
    const FibBatchOutput out = forward_batch(reopened, queries, opt);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(out.results[i].delivered)
          << "query " << i << " dispatch " << static_cast<int>(mode);
    }
    const auto p = out.path(0);
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[1], 1u);
  }
}

// Blobs written under the older magics are refused outright — none is
// read through a compatibility path — and the error names the magic it
// found and says what to do, so an operator holding a stale store knows
// to recompile and republish rather than debug a "corrupt" file. The
// rest of the header is today's golden, so the magic alone decides.
TEST(BlobLayout, OlderMagicsAreRejectedWithAClearError) {
  const FlatFib fib = build_golden_fib();
  const auto blob = fib.blob();
  for (const char* magic : {"CPRFIB02", "CPRFIB03", "CPRFIB04", "CPRFIB05"}) {
    SCOPED_TRACE(magic);
    std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
    std::memcpy(bytes.data(), magic, 8);
    try {
      FlatFib::from_blob(bytes);
      ADD_FAILURE() << "older magic accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(magic), std::string::npos) << what;
      EXPECT_NE(what.find("recompile"), std::string::npos) << what;
    }
  }
}

// A kTz arena stamped into a CPRFIB03 container must be rejected: the
// label sections it carries never existed in that format, so no reader
// may take the header at its word. The magic check refuses it before
// the kind is looked at, and says which magic it found.
TEST(BlobLayout, TzKindInV3ContainerIsRejected) {
  const FlatFib fib = build_golden_tz_fib();
  const auto blob = fib.blob();
  std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  ASSERT_EQ(read_le<std::uint32_t>(blob, 8), 6u);  // kind = kTz
  std::memcpy(bytes.data(), "CPRFIB03", 8);
  try {
    FlatFib::from_blob(bytes);
    ADD_FAILURE() << "kTz arena in a CPRFIB03 container accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CPRFIB03"), std::string::npos) << what;
  }
}

// Kind 4 was the RLE destination-table kind. It is no longer compiled,
// so a CPRFIB06 header naming it is refused by name — not treated as an
// unknown kind and not routed through a loader with no case for it. The
// payload checksum is resealed so the kind alone decides.
TEST(BlobLayout, RetiredTableKindIsRejectedByName) {
  const FlatFib fib = build_golden_fib();
  const auto blob = fib.blob();
  std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  const std::uint32_t kind = 4;
  std::memcpy(bytes.data() + 8, &kind, 4);
  const std::uint32_t sections = read_le<std::uint32_t>(blob, 16);
  const std::uint64_t payload_bytes = read_le<std::uint64_t>(blob, 24);
  const std::size_t payload_begin = (40 + 24ull * sections + 63) / 64 * 64;
  const std::uint64_t sum =
      fib_payload_checksum(bytes.data() + payload_begin, payload_bytes);
  std::memcpy(bytes.data() + 32, &sum, 8);
  try {
    FlatFib::from_blob(bytes);
    ADD_FAILURE() << "kind 4 accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kind 4"), std::string::npos) << what;
    EXPECT_NE(what.find("no longer compiled"), std::string::npos) << what;
  }
}

// The layout promises, stated as offsets — the documentation of record
// for anyone parsing these files outside this codebase.
TEST(BlobLayout, HeaderAndDirectoryOffsetsArePinned) {
  const FlatFib fib = build_golden_fib();
  const auto blob = fib.blob();

  // Header: magic[8] | kind u32 | node_count u32 | section_count u32 |
  // reserved u32 | payload_bytes u64 | checksum u64 — 40 bytes, all
  // little-endian.
  ASSERT_GE(blob.size(), 40u);
  EXPECT_EQ(std::memcmp(blob.data(), "CPRFIB06", 8), 0);
  EXPECT_EQ(read_le<std::uint32_t>(blob, 8), 3u);   // kind = kCowen
  EXPECT_EQ(read_le<std::uint32_t>(blob, 12), 3u);  // node_count
  const std::uint32_t sections = read_le<std::uint32_t>(blob, 16);
  ASSERT_EQ(sections, 8u);  // 3 topology + 5 cowen
  EXPECT_EQ(read_le<std::uint32_t>(blob, 20), 0u);  // reserved
  const std::uint64_t payload_bytes = read_le<std::uint64_t>(blob, 24);
  EXPECT_EQ(40u + 24u * sections + payload_bytes +
                (64u - (40u + 24u * sections) % 64u) % 64u,
            blob.size());

  // Directory: 24-byte entries {id u32, pad u32, offset u64, bytes u64}
  // starting at byte 40; offsets are blob-relative and 64-byte aligned;
  // sections appear in the order the builder added them.
  const std::uint32_t expected_ids[] = {
      fib_section::kTopoOffsets,       fib_section::kTopoNeighbor,
      fib_section::kTopoEdge,          fib_section::kCowenRowOff,
      fib_section::kCowenRowLen,       fib_section::kCowenRows,
      fib_section::kCowenLandmark,     fib_section::kCowenLandmarkPort,
  };
  std::uint64_t prev_end = 40 + 24ull * sections;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::size_t e = 40 + 24ull * s;
    EXPECT_EQ(read_le<std::uint32_t>(blob, e), expected_ids[s])
        << "directory entry " << s;
    EXPECT_EQ(read_le<std::uint32_t>(blob, e + 4), 0u) << "pad " << s;
    const std::uint64_t offset = read_le<std::uint64_t>(blob, e + 8);
    EXPECT_EQ(offset % 64, 0u) << "section " << s << " misaligned";
    EXPECT_GE(offset, prev_end) << "section " << s << " overlaps";
    prev_end = offset + read_le<std::uint64_t>(blob, e + 16);
  }

  // Endianness of the payload itself: the first Cowen row entry is
  // fib_pack_entry(1, 0) = key 1 in the high u32, port 0 in the low —
  // stored little-endian, so bytes 4..7 of the entry read 01 00 00 00.
  const std::uint64_t rows_off = read_le<std::uint64_t>(blob, 40 + 24ull * 5 + 8);
  EXPECT_EQ(read_le<std::uint64_t>(blob, rows_off), fib_pack_entry(1, 0));
  const std::uint8_t expect_bytes[8] = {0, 0, 0, 0, 1, 0, 0, 0};
  EXPECT_EQ(std::memcmp(blob.data() + rows_off, expect_bytes, 8), 0)
      << "packed row entries must serialize little-endian";
}

}  // namespace
}  // namespace cpr
