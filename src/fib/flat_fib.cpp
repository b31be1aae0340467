#include "fib/flat_fib.hpp"

#include "fib/fib_delta.hpp"
#include "util/hugepage.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cpr {
namespace {

// Blob layout (all little-endian, produced/consumed on the same arch):
//   header   : magic "CPRFIB06" (8B), kind u32, node_count u32,
//              section_count u32, reserved u32, payload_bytes u64,
//              checksum u64 (fib_payload_checksum over the payload region)
//   directory: per section {id u32, pad u32, offset u64, bytes u64};
//              offset is relative to blob start and 64-byte aligned
//   payload  : sections back to back, zero-padded to 64-byte boundaries
//
// kCowen and kTz arenas must carry kCowenRowLen (kCowenRowOff describes
// row *capacities*; slack past row_len[v] must be zero), and every row's
// live prefix in kCowenRows is in Eytzinger order. kTz additionally
// requires kLabelMap and kDictionary. node_count == 0 is legal
// (degenerate graphs serialize).
//
// Only this magic is accepted. Blobs carrying the older CPRFIB02/03/04/05
// magics (sorted rows, some with an Eytzinger mirror section, some with
// FNV-1a checksums) were only ever written by earlier builds of this
// library; the loader names the magic and asks for a recompile rather
// than keeping a second reader alive.
constexpr char kMagic[8] = {'C', 'P', 'R', 'F', 'I', 'B', '0', '6'};
constexpr std::size_t kHeaderBytes = 8 + 4 * 4 + 8 + 8;  // 40
constexpr std::size_t kDirEntryBytes = 4 + 4 + 8 + 8;    // 24
constexpr std::size_t kChecksumOffset = 32;              // u64 in the header
constexpr std::size_t kSectionAlign = 64;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("FlatFib: " + what);
}

std::size_t align_up(std::size_t x, std::size_t a) {
  return (x + a - 1) / a * a;
}

// First payload byte of a blob with `section_count` directory entries.
std::size_t payload_begin_for(std::size_t section_count) {
  return align_up(kHeaderBytes + section_count * kDirEntryBytes,
                  kSectionAlign);
}

struct SectionRef {
  const std::uint8_t* data = nullptr;
  std::size_t bytes = 0;
  bool present = false;
};

// Directory lookup helper bound to one opened blob.
class Directory {
 public:
  Directory(const std::uint8_t* base, std::size_t total_bytes)
      : base_(base), total_(total_bytes) {}

  void add(std::uint32_t id, std::uint64_t offset, std::uint64_t bytes) {
    if (offset % kSectionAlign != 0) fail("section offset not 64-byte aligned");
    if (offset > total_ || bytes > total_ - offset) {
      fail("section extends past blob end");
    }
    for (const auto& e : entries_) {
      if (e.id == id) fail("duplicate section id");
    }
    entries_.push_back({id, offset, bytes});
  }

  // Section must exist and hold exactly `count` elements of `elem_bytes`.
  SectionRef require(std::uint32_t id, std::size_t elem_bytes,
                     std::size_t count) const {
    SectionRef r = find(id);
    if (!r.present) fail("missing section " + std::to_string(id));
    if (r.bytes != elem_bytes * count) {
      fail("section " + std::to_string(id) + " has wrong size");
    }
    return r;
  }

  // Section must exist with a size that is a multiple of elem_bytes;
  // returns the element count via *count.
  SectionRef require_counted(std::uint32_t id, std::size_t elem_bytes,
                             std::size_t* count) const {
    SectionRef r = find(id);
    if (!r.present) fail("missing section " + std::to_string(id));
    if (r.bytes % elem_bytes != 0) {
      fail("section " + std::to_string(id) + " has torn size");
    }
    *count = r.bytes / elem_bytes;
    return r;
  }

 private:
  SectionRef find(std::uint32_t id) const {
    for (const auto& e : entries_) {
      if (e.id == id) return {base_ + e.offset, e.bytes, true};
    }
    return {};
  }

  struct Entry {
    std::uint32_t id;
    std::uint64_t offset;
    std::uint64_t bytes;
  };
  const std::uint8_t* base_;
  std::size_t total_;
  std::vector<Entry> entries_;
};

// Checks that off[0] == 0 and off is non-decreasing with off[n] == limit.
void check_offsets(const std::uint32_t* off, std::size_t n, std::size_t limit,
                   const char* what) {
  if (off[0] != 0) fail(std::string(what) + ": offsets must start at 0");
  for (std::size_t i = 0; i < n; ++i) {
    if (off[i + 1] < off[i]) fail(std::string(what) + ": offsets decrease");
  }
  if (off[n] != limit) fail(std::string(what) + ": offsets mismatch payload");
}

void check_node_ids(const std::uint32_t* ids, std::size_t count,
                    std::size_t n, const char* what) {
  for (std::size_t i = 0; i < count; ++i) {
    if (ids[i] >= n) fail(std::string(what) + ": node id out of range");
  }
}

// XXH64 primes and lane round (xxhash.com spec, seed 0).
constexpr std::uint64_t kXxP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kXxP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kXxP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kXxP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kXxP5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}
inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) {
  return rotl64(acc + input * kXxP2, 31) * kXxP1;
}
inline std::uint64_t xx_merge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ xx_round(0, lane)) * kXxP1 + kXxP4;
}
inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

std::uint64_t fib_payload_checksum(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::uint8_t* const end = p + bytes;
  std::uint64_t h;
  if (bytes >= 32) {
    std::uint64_t v1 = kXxP1 + kXxP2, v2 = kXxP2, v3 = 0, v4 = 0 - kXxP1;
    for (; end - p >= 32; p += 32) {
      v1 = xx_round(v1, load_u64(p));
      v2 = xx_round(v2, load_u64(p + 8));
      v3 = xx_round(v3, load_u64(p + 16));
      v4 = xx_round(v4, load_u64(p + 24));
    }
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = xx_merge(xx_merge(xx_merge(xx_merge(h, v1), v2), v3), v4);
  } else {
    h = kXxP5;
  }
  h += bytes;
  for (; end - p >= 8; p += 8) {
    h = rotl64(h ^ xx_round(0, load_u64(p)), 27) * kXxP1 + kXxP4;
  }
  if (end - p >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    h = rotl64(h ^ (std::uint64_t{w} * kXxP1), 23) * kXxP2 + kXxP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl64(h ^ (*p * kXxP5), 11) * kXxP1;
  h ^= h >> 33;
  h *= kXxP2;
  h ^= h >> 29;
  h *= kXxP3;
  h ^= h >> 32;
  return h;
}

bool fib_reseal_payload_checksum(std::uint8_t* blob, std::size_t bytes) {
  if (bytes < kHeaderBytes) return false;
  std::uint32_t section_count = 0;
  std::uint64_t payload_bytes = 0;
  std::memcpy(&section_count, blob + 16, 4);
  std::memcpy(&payload_bytes, blob + 24, 8);
  if (section_count == 0 || section_count > 64) return false;
  const std::size_t begin = payload_begin_for(section_count);
  if (begin > bytes || payload_bytes > bytes - begin) return false;
  const std::uint64_t sum = fib_payload_checksum(blob + begin, payload_bytes);
  std::memcpy(blob + kChecksumOffset, &sum, 8);
  return true;
}

FlatFib FlatFib::from_words(std::vector<std::uint64_t> words) {
  FlatFib fib;
  fib.words_ = std::move(words);
  fib.base_ = reinterpret_cast<const std::uint8_t*>(fib.words_.data());
  fib.mutable_base_ = reinterpret_cast<std::uint8_t*>(fib.words_.data());
  fib.writable_ = true;
  const std::size_t avail = fib.words_.size() * sizeof(std::uint64_t);
  advise_huge_pages(fib.words_.data(), avail);
  return open(std::move(fib), avail);
}

FlatFib FlatFib::from_memory(const void* data, std::size_t bytes) {
  if (reinterpret_cast<std::uintptr_t>(data) % alignof(std::uint64_t) != 0) {
    fail("from_memory base is not 8-byte aligned");
  }
  FlatFib fib;
  fib.base_ = static_cast<const std::uint8_t*>(data);
  fib.writable_ = false;
  return open(std::move(fib), bytes);
}

FlatFib FlatFib::from_shared(void* data, std::size_t bytes,
                             std::uint64_t* shared_seq, bool writable) {
  if (reinterpret_cast<std::uintptr_t>(data) % alignof(std::uint64_t) != 0) {
    fail("from_shared base is not 8-byte aligned");
  }
  if (shared_seq == nullptr) fail("from_shared needs a seqlock word");
  FlatFib fib;
  fib.base_ = static_cast<const std::uint8_t*>(data);
  fib.mutable_base_ = writable ? static_cast<std::uint8_t*>(data) : nullptr;
  fib.shared_gen_ = shared_seq;
  // The mapping may be mid-patch while we parse it: only the immutable
  // header/directory region is checked here. The patch-channel reader
  // validates a seqlock-stable snapshot before handing out the arena.
  fib.deep_validate_ = false;
  fib.writable_ = writable;
  return open(std::move(fib), bytes);
}

FlatFib FlatFib::open(FlatFib fib, std::size_t avail) {
  const std::uint8_t* base = fib.base_;

  if (avail < kHeaderBytes) fail("blob shorter than header");
  if (std::memcmp(base, kMagic, 8) != 0) {
    for (const char* old : {"CPRFIB02", "CPRFIB03", "CPRFIB04", "CPRFIB05"}) {
      if (std::memcmp(base, old, 8) == 0) {
        fail("blob magic " + std::string(old) +
             " is an older format this build no longer reads (it accepts "
             "only CPRFIB06); recompile the FIB and republish it");
      }
    }
    fail("bad magic");
  }

  std::uint32_t kind_raw, node_count, section_count, reserved;
  std::uint64_t payload_bytes, checksum;
  std::memcpy(&kind_raw, base + 8, 4);
  std::memcpy(&node_count, base + 12, 4);
  std::memcpy(&section_count, base + 16, 4);
  std::memcpy(&reserved, base + 20, 4);
  std::memcpy(&payload_bytes, base + 24, 8);
  std::memcpy(&checksum, base + kChecksumOffset, 8);

  if (kind_raw < 1 || kind_raw > 6) fail("unknown FIB kind");
  if (kind_raw == 4) {
    fail("FIB kind 4 (RLE destination tables) is no longer compiled; "
         "table schemes route on their scheme objects");
  }
  if (reserved != 0) fail("reserved header field is nonzero");
  if (section_count == 0 || section_count > 64) fail("bad section count");

  const std::size_t dir_end = kHeaderBytes + section_count * kDirEntryBytes;
  const std::size_t payload_begin = payload_begin_for(section_count);
  if (payload_begin > avail || payload_bytes > avail - payload_begin) {
    fail("blob truncated");
  }
  const std::size_t total = payload_begin + payload_bytes;
  // from_shared opens a live mapping whose Cowen sections may be
  // mid-patch (and whose payload checksum is refreshed lazily, so it is
  // stale by design under churn): content checks are the snapshot
  // validator's job there, not the open's.
  if (fib.deep_validate_ &&
      fib_payload_checksum(base + payload_begin, payload_bytes) != checksum) {
    fail("checksum mismatch");
  }

  Directory dir(base, total);
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const std::uint8_t* e = base + kHeaderBytes + s * kDirEntryBytes;
    std::uint32_t id, pad;
    std::uint64_t offset, bytes;
    std::memcpy(&id, e, 4);
    std::memcpy(&pad, e + 4, 4);
    std::memcpy(&offset, e + 8, 8);
    std::memcpy(&bytes, e + 16, 8);
    if (pad != 0) fail("directory padding is nonzero");
    if (offset < payload_begin) fail("section overlaps header");
    dir.add(id, offset, bytes);
    fib.sections_.push_back({id, offset, bytes});
  }
  // The gap between the directory and the first section is outside the
  // checksummed payload region; insist it is zero so every byte of the
  // blob is covered by some check.
  for (std::size_t i = dir_end; i < payload_begin; ++i) {
    if (base[i] != 0) fail("directory tail padding is nonzero");
  }

  const std::size_t n = node_count;
  fib.bytes_ = total;
  fib.kind_ = static_cast<FibKind>(kind_raw);
  fib.node_count_ = n;

  // Topology (every kind). Slot counts must agree across the three arrays
  // and every neighbor id must be a valid node.
  {
    namespace fs = fib_section;
    auto off = dir.require(fs::kTopoOffsets, 4, n + 1);
    fib.topo_.offsets = reinterpret_cast<const std::uint32_t*>(off.data);
    std::size_t slots = 0;
    auto nbr = dir.require_counted(fs::kTopoNeighbor, 4, &slots);
    check_offsets(fib.topo_.offsets, n, slots, "topology");
    auto edg = dir.require(fs::kTopoEdge, 4, slots);
    fib.topo_.neighbor = reinterpret_cast<const std::uint32_t*>(nbr.data);
    fib.topo_.edge = reinterpret_cast<const std::uint32_t*>(edg.data);
    check_node_ids(fib.topo_.neighbor, slots, n, "topology");
  }

  namespace fs = fib_section;
  switch (fib.kind_) {
    case FibKind::kTree: {
      auto nodes = dir.require(fs::kTreeNodes, sizeof(FibTreeNode), n + 1);
      fib.tree_.nodes = reinterpret_cast<const FibTreeNode*>(nodes.data);
      std::size_t lights = 0;
      auto lp = dir.require_counted(fs::kTreeLightPorts, 4, &lights);
      fib.tree_.light_ports = reinterpret_cast<const std::uint32_t*>(lp.data);
      for (std::size_t v = 0; v < n; ++v) {
        const auto& r = fib.tree_.nodes[v];
        if (r.light_off > fib.tree_.nodes[v + 1].light_off) {
          fail("tree: light offsets decrease");
        }
        if (r.dfs_in >= n || r.dfs_out >= n || r.dfs_in > r.dfs_out) {
          fail("tree: bad dfs interval");
        }
      }
      if (fib.tree_.nodes[0].light_off != 0 ||
          fib.tree_.nodes[n].light_off != lights) {
        fail("tree: light offsets mismatch payload");
      }
      auto loff = dir.require(fs::kTreeLabelOff, 4, n + 1);
      fib.tree_.label_off = reinterpret_cast<const std::uint32_t*>(loff.data);
      std::size_t seq = 0;
      auto ls = dir.require_counted(fs::kTreeLabelSeq, 4, &seq);
      fib.tree_.label_seq = reinterpret_cast<const std::uint32_t*>(ls.data);
      check_offsets(fib.tree_.label_off, n, seq, "tree labels");
      break;
    }
    case FibKind::kInterval: {
      auto nodes =
          dir.require(fs::kIntervalNodes, sizeof(FibIntervalNode), n + 1);
      fib.interval_.nodes =
          reinterpret_cast<const FibIntervalNode*>(nodes.data);
      std::size_t kids = 0;
      auto ci = dir.require_counted(fs::kIntervalChildIn, 4, &kids);
      fib.interval_.child_in = reinterpret_cast<const std::uint32_t*>(ci.data);
      auto cp = dir.require(fs::kIntervalChildPort, 4, kids);
      fib.interval_.child_port =
          reinterpret_cast<const std::uint32_t*>(cp.data);
      for (std::size_t v = 0; v < n; ++v) {
        const auto& r = fib.interval_.nodes[v];
        if (r.child_off > fib.interval_.nodes[v + 1].child_off) {
          fail("interval: child offsets decrease");
        }
        if (r.dfs_in >= n || r.dfs_out >= n || r.dfs_in > r.dfs_out) {
          fail("interval: bad dfs interval");
        }
      }
      if (fib.interval_.nodes[0].child_off != 0 ||
          fib.interval_.nodes[n].child_off != kids) {
        fail("interval: child offsets mismatch payload");
      }
      break;
    }
    // kTz shares the Cowen row machinery — capacity CSR, live-length
    // array, landmark arrays — with keys drawn from
    // label space instead of node-id space (a bijection, so every range
    // check below still holds verbatim). On top it must carry the label
    // map and the name dictionary, validated after the shared block.
    case FibKind::kTz:
    case FibKind::kCowen: {
      auto roff = dir.require(fs::kCowenRowOff, 4, n + 1);
      fib.cowen_.row_off = reinterpret_cast<const std::uint32_t*>(roff.data);
      std::size_t rows = 0;
      auto rr = dir.require_counted(fs::kCowenRows, 8, &rows);
      fib.cowen_.rows = reinterpret_cast<const std::uint64_t*>(rr.data);
      check_offsets(fib.cowen_.row_off, n, rows, "cowen rows");
      auto rlen = dir.require(fs::kCowenRowLen, 4, n);
      fib.cowen_.row_len = reinterpret_cast<const std::uint32_t*>(rlen.data);
      auto lm = dir.require(fs::kCowenLandmark, 4, n);
      fib.cowen_.landmark = reinterpret_cast<const std::uint32_t*>(lm.data);
      if (fib.deep_validate_) {
        for (std::size_t v = 0; v < n; ++v) {
          // kInvalidNode marks a node with no reachable landmark.
          if (fib.cowen_.landmark[v] >= n &&
              fib.cowen_.landmark[v] != kInvalidNode) {
            fail("cowen: landmark out of range");
          }
        }
      }
      auto lmp = dir.require(fs::kCowenLandmarkPort, 4, n);
      fib.cowen_.landmark_port =
          reinterpret_cast<const std::uint32_t*>(lmp.data);
      // row_off is the capacity CSR; the in-order walk of each row's
      // live prefix must be strictly increasing by key (it is a valid
      // Eytzinger layout, so fib_row_find finds every key) and the slack
      // tail zeroed (apply_delta keeps both invariants, so reload ==
      // fresh compile structurally). Skipped for live shared mappings:
      // these sections are exactly the ones a concurrent writer patches.
      if (fib.deep_validate_) {
        for (std::size_t v = 0; v < n; ++v) {
          const std::uint32_t* ro = fib.cowen_.row_off;
          const std::uint64_t* row = fib.cowen_.rows + ro[v];
          const std::uint32_t cap = ro[v + 1] - ro[v];
          const std::uint32_t len = fib.cowen_.row_len[v];
          if (len > cap) fail("cowen: row length exceeds capacity");
          std::uint64_t prev = 0;
          fib_eytzinger_inorder(len, [&](std::uint64_t k, std::uint64_t i) {
            if (i > 0 && fib_entry_key(row[k]) <= fib_entry_key(prev)) {
              fail("cowen: row keys not in Eytzinger order");
            }
            prev = row[k];
          });
          for (std::uint32_t i = len; i < cap; ++i) {
            if (row[i] != 0) fail("cowen: row slack is nonzero");
          }
        }
      }
      if (fib.kind_ == FibKind::kTz) {
        auto lmap = dir.require(fs::kLabelMap, 4, n);
        fib.tz_.label_of = reinterpret_cast<const std::uint32_t*>(lmap.data);
        std::size_t dict_words = 0;
        auto dict = dir.require_counted(fs::kDictionary, 8, &dict_words);
        if (dict_words < 2) fail("tz: dictionary shorter than its header");
        std::uint64_t bucket_count, bucket_cap;
        std::memcpy(&bucket_count, dict.data, 8);
        std::memcpy(&bucket_cap, dict.data + 8, 8);
        const std::uint64_t slots = dict_words - 2;
        if (bucket_count == 0) fail("tz: dictionary has no buckets");
        // Divide instead of multiplying: corrupted counts cannot be
        // trusted not to overflow the product.
        if (bucket_cap == 0 ? slots != 0
                            : (slots / bucket_cap != bucket_count ||
                               slots % bucket_cap != 0)) {
          fail("tz: dictionary slot count disagrees with its header");
        }
        fib.tz_.dict = reinterpret_cast<const std::uint64_t*>(dict.data) + 2;
        fib.tz_.dict_bucket_count = bucket_count;
        fib.tz_.dict_bucket_cap = bucket_cap;
        if (fib.deep_validate_) {
          // The label map must be a permutation of [0, n): the walkers
          // use it for the deliver test, so a repeated or out-of-range
          // label would silently misdeliver.
          std::vector<bool> seen(n, false);
          for (std::size_t v = 0; v < n; ++v) {
            const std::uint32_t l = fib.tz_.label_of[v];
            if (l >= n || seen[l]) fail("tz: label map is not a permutation");
            seen[l] = true;
          }
          // Dictionary: per bucket, a strictly-increasing (by name) live
          // prefix whose entries hash to that bucket and agree with the
          // label map, then kFibDictEmpty fill; exactly n live entries
          // in total, so every name resolves and none resolves twice.
          std::size_t live = 0;
          for (std::uint64_t b = 0; b < bucket_count; ++b) {
            const std::uint64_t* slot = fib.tz_.dict + b * bucket_cap;
            bool in_fill = false;
            std::uint32_t prev_name = 0;
            for (std::uint64_t i = 0; i < bucket_cap; ++i) {
              if (slot[i] == kFibDictEmpty) {
                in_fill = true;
                continue;
              }
              if (in_fill) fail("tz: dictionary entry after empty fill");
              const std::uint32_t name = fib_entry_key(slot[i]);
              const std::uint32_t label = fib_entry_port(slot[i]);
              if (name >= n || label >= n) {
                fail("tz: dictionary entry out of range");
              }
              if (i > 0 && name <= prev_name) {
                fail("tz: dictionary bucket not strictly increasing");
              }
              if (fib_dict_bucket(name, bucket_count) != b) {
                fail("tz: dictionary entry in wrong bucket");
              }
              if (fib.tz_.label_of[name] != label) {
                fail("tz: dictionary disagrees with label map");
              }
              prev_name = name;
              ++live;
            }
          }
          if (live != n) {
            fail("tz: dictionary must hold every name exactly once");
          }
        }
      }
      break;
    }
    case FibKind::kMesh: {
      auto info = dir.require(fs::kMeshInfo, 4, 1);
      std::uint32_t k = 0;
      std::memcpy(&k, info.data, 4);
      if (n == 0) {
        if (k != 0) fail("mesh: component count nonzero for empty FIB");
      } else if (k == 0 || k > n) {
        fail("mesh: bad component count");
      }
      fib.mesh_.component_count = k;
      auto comp = dir.require(fs::kMeshComp, 4, n);
      fib.mesh_.comp = reinterpret_cast<const std::uint32_t*>(comp.data);
      for (std::size_t v = 0; v < n; ++v) {
        if (fib.mesh_.comp[v] >= k) fail("mesh: component id out of range");
      }
      auto pp =
          dir.require(fs::kMeshPeerPort, 4, std::size_t{k} * std::size_t{k});
      fib.mesh_.peer_port = reinterpret_cast<const std::uint32_t*>(pp.data);
      auto nodes = dir.require(fs::kMeshNodes, sizeof(FibTreeNode), n + 1);
      fib.mesh_.nodes = reinterpret_cast<const FibTreeNode*>(nodes.data);
      std::size_t lights = 0;
      auto lp = dir.require_counted(fs::kMeshLightPorts, 4, &lights);
      fib.mesh_.light_ports = reinterpret_cast<const std::uint32_t*>(lp.data);
      // DFS numbers are per-component preorders: exactly one node per
      // component carries dfs_in == 0 (its local root) — the walker tests
      // dfs_in == 0 to decide whether a foreign packet peers across.
      std::vector<std::uint32_t> roots(k, 0);
      for (std::size_t v = 0; v < n; ++v) {
        const auto& r = fib.mesh_.nodes[v];
        if (r.light_off > fib.mesh_.nodes[v + 1].light_off) {
          fail("mesh: light offsets decrease");
        }
        if (r.dfs_in >= n || r.dfs_out >= n || r.dfs_in > r.dfs_out) {
          fail("mesh: bad dfs interval");
        }
        if (r.dfs_in == 0) ++roots[fib.mesh_.comp[v]];
      }
      for (std::uint32_t c = 0; c < k; ++c) {
        if (roots[c] != 1) fail("mesh: component must have exactly one root");
      }
      if (fib.mesh_.nodes[0].light_off != 0 ||
          fib.mesh_.nodes[n].light_off != lights) {
        fail("mesh: light offsets mismatch payload");
      }
      auto loff = dir.require(fs::kMeshLabelOff, 4, n + 1);
      fib.mesh_.label_off = reinterpret_cast<const std::uint32_t*>(loff.data);
      std::size_t seq = 0;
      auto ls = dir.require_counted(fs::kMeshLabelSeq, 4, &seq);
      fib.mesh_.label_seq = reinterpret_cast<const std::uint32_t*>(ls.data);
      check_offsets(fib.mesh_.label_off, n, seq, "mesh labels");
      break;
    }
  }
  return fib;
}

FlatFib FlatFib::from_blob(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> words((bytes.size() + 7) / 8, 0);
  // memcpy's pointers must be non-null even for zero bytes, and an empty
  // span/vector may hand out nullptr.
  if (!bytes.empty()) std::memcpy(words.data(), bytes.data(), bytes.size());
  return from_words(std::move(words));
}

FlatFib::FlatFib(FlatFib&& other) noexcept
    : words_(std::move(other.words_)),
      base_(other.base_),
      mutable_base_(other.mutable_base_),
      shared_gen_(other.shared_gen_),
      deep_validate_(other.deep_validate_),
      writable_(other.writable_),
      bytes_(other.bytes_),
      kind_(other.kind_),
      node_count_(other.node_count_),
      sections_(std::move(other.sections_)),
      generation_(other.generation_.load(std::memory_order_acquire)),
      crash_after_patches_(other.crash_after_patches_),
      checksum_stale_(other.checksum_stale_),
      topo_(other.topo_),
      tree_(other.tree_),
      interval_(other.interval_),
      cowen_(other.cowen_),
      tz_(other.tz_),
      mesh_(other.mesh_) {}

FlatFib& FlatFib::operator=(FlatFib&& other) noexcept {
  if (this != &other) {
    words_ = std::move(other.words_);
    base_ = other.base_;
    mutable_base_ = other.mutable_base_;
    shared_gen_ = other.shared_gen_;
    deep_validate_ = other.deep_validate_;
    writable_ = other.writable_;
    bytes_ = other.bytes_;
    kind_ = other.kind_;
    node_count_ = other.node_count_;
    sections_ = std::move(other.sections_);
    generation_.store(other.generation_.load(std::memory_order_acquire),
                      std::memory_order_release);
    crash_after_patches_ = other.crash_after_patches_;
    checksum_stale_ = other.checksum_stale_;
    topo_ = other.topo_;
    tree_ = other.tree_;
    interval_ = other.interval_;
    cowen_ = other.cowen_;
    tz_ = other.tz_;
    mesh_ = other.mesh_;
  }
  return *this;
}

std::uint8_t* FlatFib::section_ptr(std::uint32_t id) {
  if (!writable_ || mutable_base_ == nullptr) return nullptr;
  for (const auto& s : sections_) {
    if (s.id == id) return mutable_base_ + s.offset;
  }
  return nullptr;
}

void FlatFib::refresh_checksum() const {
  if (!writable_ || mutable_base_ == nullptr) return;  // foreign read-only
  fib_reseal_payload_checksum(mutable_base_, bytes_);
  checksum_stale_ = false;
}

bool FlatFib::apply_delta(const FibDelta& delta,
                          std::vector<FibWordWrite>* writes) {
  namespace fs = fib_section;
  if (writes != nullptr) writes->clear();
  if (delta.recompile) return false;
  if (delta.patches.empty()) return true;
  if (kind_ != FibKind::kCowen && kind_ != FibKind::kTz) return false;
  const std::size_t n = node_count_;

  // Pass 1: validate every patch against the compiled layout so a reject
  // (slack exhausted, malformed row) leaves the arena byte-identical.
  for (const FibRowPatch& p : delta.patches) {
    switch (p.section) {
      case fs::kCowenRows: {
        if (p.row >= n || p.bytes.size() % 8 != 0) return false;
        const std::size_t len = p.bytes.size() / 8;
        const std::size_t cap =
            cowen_.row_off[p.row + 1] - cowen_.row_off[p.row];
        if (len > cap) return false;  // slack exhausted: compact instead
        std::uint64_t prev = 0;
        for (std::size_t i = 0; i < len; ++i) {
          std::uint64_t e;
          std::memcpy(&e, p.bytes.data() + i * 8, 8);
          if (i > 0 && fib_entry_key(e) <= fib_entry_key(prev)) return false;
          prev = e;
        }
        break;
      }
      case fs::kCowenLandmark: {
        if (p.row >= n || p.bytes.size() != 4) return false;
        std::uint32_t lm;
        std::memcpy(&lm, p.bytes.data(), 4);
        if (lm >= n && lm != kInvalidNode) return false;
        break;
      }
      case fs::kCowenLandmarkPort: {
        if (p.row >= n || p.bytes.size() != 4) return false;
        break;
      }
      case fs::kLabelMap: {
        // One relabeled node. The emitter owns the permutation invariant
        // (a single slot cannot be checked against it in isolation); the
        // loader re-verifies it on the next reload either way.
        if (kind_ != FibKind::kTz) return false;
        if (p.row >= n || p.bytes.size() != 4) return false;
        std::uint32_t label;
        std::memcpy(&label, p.bytes.data(), 4);
        if (label >= n) return false;
        break;
      }
      case fs::kDictionary: {
        // Whole-bucket rewrite, keyed by bucket index — the dictionary
        // analog of a kCowenRows row patch, same fixed-capacity rules.
        if (kind_ != FibKind::kTz) return false;
        if (p.row >= tz_.dict_bucket_count || p.bytes.size() % 8 != 0) {
          return false;
        }
        const std::size_t len = p.bytes.size() / 8;
        if (len > tz_.dict_bucket_cap) return false;
        std::uint64_t prev = 0;
        for (std::size_t i = 0; i < len; ++i) {
          std::uint64_t e;
          std::memcpy(&e, p.bytes.data() + i * 8, 8);
          const std::uint32_t name = fib_entry_key(e);
          const std::uint32_t label = fib_entry_port(e);
          if (name >= n || label >= n) return false;
          if (fib_dict_bucket(name, tz_.dict_bucket_count) != p.row) {
            return false;
          }
          if (i > 0 && name <= fib_entry_key(prev)) return false;
          prev = e;
        }
        break;
      }
      default:
        return false;
    }
  }

  auto* rows = reinterpret_cast<std::uint64_t*>(section_ptr(fs::kCowenRows));
  auto* row_len =
      reinterpret_cast<std::uint32_t*>(section_ptr(fs::kCowenRowLen));
  auto* landmark =
      reinterpret_cast<std::uint32_t*>(section_ptr(fs::kCowenLandmark));
  auto* landmark_port =
      reinterpret_cast<std::uint32_t*>(section_ptr(fs::kCowenLandmarkPort));
  // section_ptr is nullptr for read-only arenas: mmap'd blobs are immutable
  // by contract, so a delta against one always reports "recompile".
  if (!rows || !row_len || !landmark || !landmark_port) return false;
  // Label sections exist exactly on kTz arenas; their patches are
  // refused above for every other kind, so nullptr here is never
  // dereferenced.
  auto* label_map =
      reinterpret_cast<std::uint32_t*>(section_ptr(fs::kLabelMap));
  auto* dict_base =
      reinterpret_cast<std::uint64_t*>(section_ptr(fs::kDictionary));
  if (kind_ == FibKind::kTz && (!label_map || !dict_base)) return false;

  // Seqlock write. An odd generation here means a previous writer died
  // inside its patch window (or two writers raced, which the single-writer
  // contract forbids); the arena may hold a half-applied patch, so refuse
  // and let the owner compact into a fresh arena. For from_shared arenas
  // the word lives in the MAP_SHARED segment header, so the window is
  // visible to reader *processes*, and an odd parity left by a SIGKILLed
  // writer is exactly what a standby's takeover must refuse to compound.
  const std::uint64_t gen = gen_load(std::memory_order_relaxed);
  if (gen % 2 != 0) return false;
  gen_store(gen + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);

  // All stores below are relaxed atomics so concurrent forward_batch
  // readers (who re-read the generation around every batch and retry on a
  // mismatch) race with them benignly rather than undefinedly. Each store
  // that changes a word is reported to `writes`; a u32 store as the u64
  // word around it (sections are 64-byte aligned, so that word never
  // straddles another section).
  const auto tracked = [&](const void* slot, auto&& store) {
    if (writes == nullptr) return store();
    const auto* word = reinterpret_cast<const std::uint64_t*>(
        reinterpret_cast<std::uintptr_t>(slot) & ~std::uintptr_t{7});
    const std::uint64_t before = fib_seq_load_u64(word);
    store();
    const std::uint64_t after = fib_seq_load_u64(word);
    if (after == before) return;
    const auto index = static_cast<std::uint64_t>(
        (reinterpret_cast<const std::uint8_t*>(word) - mutable_base_) / 8);
    writes->push_back({index, before, after});
  };
  const auto store_u64 = [&](std::uint64_t* p, std::uint64_t v) {
    tracked(p, [&] { fib_seq_store_u64(p, v); });
  };
  const auto store_u32 = [&](std::uint32_t* p, std::uint32_t v) {
    tracked(p, [&] { fib_seq_store_u32(p, v); });
  };
  std::size_t applied = 0;
  for (const FibRowPatch& p : delta.patches) {
    if (applied++ == crash_after_patches_) {
      crash_after_patches_ = static_cast<std::size_t>(-1);  // one-shot
      return true;  // test hook: the writer "dies" inside the window
    }
    switch (p.section) {
      case fs::kCowenRows: {
        const std::size_t begin = cowen_.row_off[p.row];
        const std::size_t cap = cowen_.row_off[p.row + 1] - begin;
        const std::size_t len = p.bytes.size() / 8;
        // The delta carries the row sorted; re-lay it in Eytzinger order
        // in place, so the patched arena is byte-identical to a fresh
        // compile of the same table.
        fib_eytzinger_inorder(len, [&](std::uint64_t k, std::uint64_t i) {
          std::uint64_t e;
          std::memcpy(&e, p.bytes.data() + i * 8, 8);
          store_u64(rows + begin + k, e);
        });
        for (std::size_t i = len; i < cap; ++i) {
          store_u64(rows + begin + i, 0);
        }
        store_u32(row_len + p.row, static_cast<std::uint32_t>(len));
        break;
      }
      case fs::kCowenLandmark: {
        std::uint32_t lm;
        std::memcpy(&lm, p.bytes.data(), 4);
        store_u32(landmark + p.row, lm);
        break;
      }
      case fs::kCowenLandmarkPort: {
        std::uint32_t port;
        std::memcpy(&port, p.bytes.data(), 4);
        store_u32(landmark_port + p.row, port);
        break;
      }
      case fs::kLabelMap: {
        std::uint32_t label;
        std::memcpy(&label, p.bytes.data(), 4);
        store_u32(label_map + p.row, label);
        break;
      }
      case fs::kDictionary: {
        // Bucket slots start past the 16-byte [count][cap] header.
        std::uint64_t* slot = dict_base + 2 + p.row * tz_.dict_bucket_cap;
        const std::size_t len = p.bytes.size() / 8;
        for (std::size_t i = 0; i < len; ++i) {
          std::uint64_t e;
          std::memcpy(&e, p.bytes.data() + i * 8, 8);
          store_u64(slot + i, e);
        }
        for (std::size_t i = len; i < tz_.dict_bucket_cap; ++i) {
          store_u64(slot + i, kFibDictEmpty);
        }
        break;
      }
    }
  }
  checksum_stale_ = true;
  gen_store(gen + 2, std::memory_order_release);
  return true;
}

FibBuilder::FibBuilder(FibKind kind, std::size_t node_count)
    : kind_(kind), node_count_(node_count) {}

void FibBuilder::add_topology(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] =
        offsets[v] + static_cast<std::uint32_t>(g.degree(v));
  }
  std::vector<std::uint32_t> neighbor(offsets[n]);
  std::vector<std::uint32_t> edge(offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    const auto& row = g.neighbors(v);
    for (std::size_t p = 0; p < row.size(); ++p) {
      neighbor[offsets[v] + p] = row[p].neighbor;
      edge[offsets[v] + p] = row[p].edge;
    }
  }
  add_array(fib_section::kTopoOffsets, std::move(offsets));
  add_array(fib_section::kTopoNeighbor, std::move(neighbor));
  add_array(fib_section::kTopoEdge, std::move(edge));
}

void FibBuilder::add_section_writer(std::uint32_t id, std::size_t nbytes,
                                    SectionWriter write) {
  sections_.push_back({id, nbytes, std::move(write)});
}

FlatFib FibBuilder::finish() {
  // Lay out every offset first, then allocate the blob exactly once.
  const std::size_t payload_begin = payload_begin_for(sections_.size());
  std::vector<std::uint64_t> offsets;
  offsets.reserve(sections_.size());
  std::size_t cursor = payload_begin;
  for (const auto& s : sections_) {
    offsets.push_back(cursor);
    cursor = align_up(cursor + s.bytes, kSectionAlign);
  }
  const std::size_t total = cursor;
  const std::size_t payload_bytes = total - payload_begin;

  // Reserve first so large blobs get huge-page backing before the zero
  // fill faults them in; padding and row slack stay zero from here.
  std::vector<std::uint64_t> words;
  words.reserve(total / 8);
  advise_huge_pages(words.data(), total);
  words.resize(total / 8);
  auto* base = reinterpret_cast<std::uint8_t*>(words.data());

  for (std::size_t i = 0; i < sections_.size(); ++i) {
    sections_[i].write(base + offsets[i]);
  }

  const std::uint64_t checksum =
      fib_payload_checksum(base + payload_begin, payload_bytes);
  const auto put = [](std::uint8_t* dst, auto v) {
    std::memcpy(dst, &v, sizeof(v));
  };
  std::memcpy(base, kMagic, sizeof(kMagic));
  put(base + 8, static_cast<std::uint32_t>(kind_));
  put(base + 12, static_cast<std::uint32_t>(node_count_));
  put(base + 16, static_cast<std::uint32_t>(sections_.size()));
  put(base + 20, std::uint32_t{0});  // reserved
  put(base + 24, std::uint64_t{payload_bytes});
  put(base + kChecksumOffset, checksum);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    std::uint8_t* e = base + kHeaderBytes + i * kDirEntryBytes;
    put(e, sections_[i].id);  // the pad u32 at e + 4 stays zero
    put(e + 8, std::uint64_t{offsets[i]});
    put(e + 16, std::uint64_t{sections_[i].bytes});
  }
  return FlatFib::from_words(std::move(words));
}

}  // namespace cpr
