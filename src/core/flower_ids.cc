#include "core/flower_ids.h"

#include <cassert>
#include <string>

#include "common/hash.h"

namespace flower {

DRingIdScheme::DRingIdScheme(int id_bits, int locality_bits, int extra_bits)
    : id_bits_(id_bits),
      locality_bits_(locality_bits),
      extra_bits_(extra_bits) {
  assert(Check(id_bits, locality_bits, extra_bits, 1, 1).ok());
}

Status DRingIdScheme::Check(int id_bits, int locality_bits, int extra_bits,
                            uint64_t localities, uint64_t instances) {
  if (id_bits > 64 || locality_bits < 1 || extra_bits < 0 ||
      int64_t{locality_bits} + extra_bits >= id_bits) {
    return Status::InvalidArgument(
        "chord_id_bits=" + std::to_string(id_bits) +
        " must be at most 64 and exceed locality_id_bits=" +
        std::to_string(locality_bits) + " (>= 1) + scaleup_extra_bits=" +
        std::to_string(extra_bits) + " (>= 0)");
  }
  // Both widths are below 64 now, so the shifts are defined.
  if (localities > uint64_t{1} << locality_bits) {
    return Status::InvalidArgument(
        "num_localities=" + std::to_string(localities) + " exceeds the " +
        std::to_string(uint64_t{1} << locality_bits) +
        " localities that locality_id_bits=" + std::to_string(locality_bits) +
        " addresses");
  }
  if (instances > uint64_t{1} << extra_bits) {
    return Status::InvalidArgument(
        "scaleup_instances=" + std::to_string(instances) + " exceeds the " +
        std::to_string(uint64_t{1} << extra_bits) +
        " directory instances that scaleup_extra_bits=" +
        std::to_string(extra_bits) + " addresses");
  }
  return Status::Ok();
}

uint64_t DRingIdScheme::HashWebsite(std::string_view url) const {
  int m2 = website_bits();
  uint64_t mask = m2 >= 64 ? ~0ULL : ((1ULL << m2) - 1);
  uint64_t h = Fnv1a64(url) & mask;
  if (h == 0) h = 1;  // subspace starts at 1 (paper Sec 3.1)
  return h;
}

Key DRingIdScheme::MakeDirectoryId(uint64_t website_hash, LocalityId loc,
                                   uint32_t inst) const {
  assert(website_hash != 0);
  // Locality `loc` and instance `inst` need loc + 1 and inst + 1 values.
  assert(Check(id_bits_, locality_bits_, extra_bits_, uint64_t{loc} + 1,
               uint64_t{inst} + 1)
             .ok());
  Key key = website_hash;
  key = (key << locality_bits_) | loc;
  key = (key << extra_bits_) | inst;
  return key;
}

}  // namespace flower
