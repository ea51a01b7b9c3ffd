#include "bloom/summary.h"

#include <algorithm>
#include <new>
#include <vector>

namespace flower {
namespace {

/// Bit b of the result is set iff byte b of `word` is nonzero.
uint64_t NonzeroBytes(uint64_t word) {
  uint64_t t = word | (word >> 4);
  t |= t >> 2;
  t |= t >> 1;
  // Bit 0 of each byte now ORs that byte's bits; gather the eight into
  // the top byte (the shifted copies land on distinct bits, so nothing
  // carries).
  return ((t & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

/// The dense filter a build fills, and the presence words packing reads
/// twice (to size the block, then to fill it). The runs of a jobs=N sweep
/// build summaries on several threads at the same time, so each thread
/// keeps its own.
struct BuildScratch {
  BloomFilter filter{1, 1};
  std::vector<uint64_t> presence;
};
thread_local BuildScratch tls_scratch;

}  // namespace

BloomFilter& ContentSummary::Scratch(size_t num_bits, int num_hashes) {
  BloomFilter& filter = tls_scratch.filter;
  if (filter.num_bits() != num_bits || filter.num_hashes() != num_hashes) {
    filter = BloomFilter(num_bits, num_hashes);
  } else {
    filter.Clear();
  }
  tls_scratch.presence.resize(Groups(num_bits));
  return filter;
}

SummaryRef ContentSummary::Pack() {
  const BloomFilter& dense = tls_scratch.filter;
  const std::vector<uint64_t>& words = dense.bits_;
  const size_t groups = Groups(dense.num_bits());
  std::vector<uint64_t>& presence_words = tls_scratch.presence;
  size_t nonzero = 0;
  for (size_t g = 0; g < groups; ++g) {
    uint64_t p = 0;
    const size_t end = std::min(words.size(), 8 * g + 8);
    for (size_t i = 8 * g; i < end; ++i) {
      p |= NonzeroBytes(words[i]) << (8 * (i % 8));
    }
    presence_words[g] = p;
    nonzero += CountBits(p);
  }
  void* block = ::operator new(sizeof(ContentSummary) +
                               groups * (sizeof(uint64_t) + sizeof(uint32_t)) +
                               nonzero);
  auto* summary = new (block) ContentSummary(dense.num_bits(),
                                             dense.num_hashes());
  unsigned char* presence = static_cast<unsigned char*>(block) +
                            sizeof(ContentSummary);
  unsigned char* ranks = presence + groups * sizeof(uint64_t);
  unsigned char* packed = ranks + groups * sizeof(uint32_t);
  std::memcpy(presence, presence_words.data(), groups * sizeof(uint64_t));
  uint32_t rank = 0;
  for (size_t g = 0; g < groups; ++g) {
    std::memcpy(ranks + g * sizeof(uint32_t), &rank, sizeof(rank));
    // One step per nonzero byte: a branch per byte would mispredict on
    // every mixed word.
    for (uint64_t rest = presence_words[g]; rest != 0; rest &= rest - 1) {
      const int b = __builtin_ctzll(rest);
      packed[rank++] =
          static_cast<unsigned char>(words[8 * g + b / 8] >> (8 * (b % 8)));
    }
  }
  return SummaryRef(summary);
}

void ContentSummary::Destroy(const ContentSummary* summary) {
  summary->~ContentSummary();
  ::operator delete(const_cast<ContentSummary*>(summary));
}

}  // namespace flower
