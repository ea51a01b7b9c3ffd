// Shared wiring handed to every Flower-CDN peer.
#ifndef FLOWERCDN_CORE_FLOWER_CONTEXT_H_
#define FLOWERCDN_CORE_FLOWER_CONTEXT_H_

#include "common/config.h"
#include "core/flower_ids.h"
#include "core/website.h"
#include "dht/chord_ring.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace flower {

class FlowerSystem;

struct FlowerContext {
  Simulator* sim = nullptr;
  Network* network = nullptr;
  ChordRing* dring = nullptr;
  const DRingIdScheme* scheme = nullptr;
  const SimConfig* config = nullptr;
  const WebsiteCatalog* catalog = nullptr;
  Metrics* metrics = nullptr;
  FlowerSystem* system = nullptr;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_FLOWER_CONTEXT_H_
