#include "net/fault_injector.h"

#include <cassert>
#include <cstdlib>
#include <limits>

namespace flower {

namespace {

// Stream-derivation tag for the fault RNG.
constexpr uint64_t kFaultStreamTag = 0xfa17fa17fa17ull;

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

Status ParseSide(const std::string& spec, PartitionSide* out) {
  if (spec == "*") {
    out->kind = PartitionSide::Kind::kRest;
    return Status::Ok();
  }
  char* end = nullptr;
  long long loc = std::strtoll(spec.c_str(), &end, 10);
  if (end == spec.c_str() || *end != '\0' || loc < 0 ||
      loc > std::numeric_limits<LocalityId>::max()) {
    return Status::InvalidArgument(
        "partition side wants a locality id or \"*\", got \"" + spec +
        "\"");
  }
  out->kind = PartitionSide::Kind::kLocality;
  out->locality = static_cast<LocalityId>(loc);
  return Status::Ok();
}

// True if a node of locality `loc` is on `side`; a "*" side holds every
// locality that `other` does not.
bool OnSide(const PartitionSide& side, const PartitionSide& other,
            LocalityId loc) {
  if (side.kind == PartitionSide::Kind::kRest) return loc != other.locality;
  return loc == side.locality;
}

bool WindowCuts(const PartitionWindow& w, PeerAddress x, PeerAddress y,
                const Topology& topology) {
  const LocalityId lx = topology.LocalityOf(static_cast<NodeId>(x));
  const LocalityId ly = topology.LocalityOf(static_cast<NodeId>(y));
  return (OnSide(w.a, w.b, lx) && OnSide(w.b, w.a, ly)) ||
         (OnSide(w.b, w.a, lx) && OnSide(w.a, w.b, ly));
}

}  // namespace

Status ParseLossSpec(const std::string& spec, double* out) {
  *out = 0;
  if (spec.empty()) return Status::Ok();
  char* end = nullptr;
  const double p = std::strtod(spec.c_str(), &end);
  if (end == spec.c_str() || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        "fault_loss wants a probability in [0, 1], got \"" + spec + "\"");
  }
  *out = p;
  return Status::Ok();
}

Status ParsePartitionSpec(const std::string& spec,
                          std::vector<PartitionWindow>* out) {
  out->clear();
  if (spec.empty()) return Status::Ok();
  for (const std::string& win : SplitOn(spec, ';')) {
    if (win.empty()) continue;
    size_t at = win.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument(
          "fault_partitions window wants \"A|B@START-END\", got \"" + win +
          "\"");
    }
    const std::string sides = win.substr(0, at);
    const std::string range = win.substr(at + 1);
    size_t bar = sides.find('|');
    if (bar == std::string::npos) {
      return Status::InvalidArgument(
          "fault_partitions window wants two \"|\"-separated sides, got \"" +
          win + "\"");
    }
    PartitionWindow w;
    Status s = ParseSide(sides.substr(0, bar), &w.a);
    if (!s.ok()) return s;
    s = ParseSide(sides.substr(bar + 1), &w.b);
    if (!s.ok()) return s;
    if (w.a.kind == PartitionSide::Kind::kRest &&
        w.b.kind == PartitionSide::Kind::kRest) {
      return Status::InvalidArgument(
          "fault_partitions: both sides of \"" + win + "\" are \"*\"");
    }
    size_t dash = range.find('-');
    if (dash == std::string::npos ||
        !ParseTimeString(range.substr(0, dash), &w.start) ||
        !ParseTimeString(range.substr(dash + 1), &w.end)) {
      return Status::InvalidArgument(
          "fault_partitions window wants a START-END time range, got \"" +
          range + "\"");
    }
    if (w.end <= w.start) {
      return Status::InvalidArgument(
          "fault_partitions window \"" + win + "\" is empty (end <= start)");
    }
    out->push_back(std::move(w));
  }
  return Status::Ok();
}

Result<FaultPlan> FaultPlan::FromConfig(const SimConfig& config) {
  FaultPlan plan;
  Status s = ParseLossSpec(config.fault_loss, &plan.loss);
  if (!s.ok()) return s;
  s = ParsePartitionSpec(config.fault_partitions, &plan.partitions);
  if (!s.ok()) return s;
  // A side naming a locality the topology lacks would cut nothing, and
  // the run would go on as if no partition were set.
  for (const PartitionWindow& w : plan.partitions) {
    for (const PartitionSide& side : {w.a, w.b}) {
      if (side.kind == PartitionSide::Kind::kLocality &&
          side.locality >= static_cast<LocalityId>(config.num_localities)) {
        return Status::InvalidArgument(
            "fault_partitions side " + std::to_string(side.locality) +
            " is not a locality (num_localities=" +
            std::to_string(config.num_localities) + ")");
      }
    }
  }
  // Written so that NaN fails too.
  if (!(config.fault_silent_crash_probability >= 0 &&
        config.fault_silent_crash_probability <= 1)) {
    return Status::InvalidArgument(
        "fault_silent_crash_probability wants a probability in [0, 1]");
  }
  plan.silent_crash_probability = config.fault_silent_crash_probability;
  return plan;
}

bool FaultPlan::Active() const {
  return loss > 0 || !partitions.empty() || silent_crash_probability > 0;
}

FaultInjector::FaultInjector(FaultPlan plan, Simulator* sim,
                             const Topology* topology)
    : plan_(std::move(plan)),
      topology_(topology),
      active_(plan_.Active()),
      rng_(Mix64(sim->seed() ^ kFaultStreamTag)) {
  assert(topology != nullptr);
  silent_.assign(static_cast<size_t>(topology->num_nodes()), 0);
}

bool FaultInjector::CutsLink(PeerAddress a, PeerAddress b,
                             SimTime now) const {
  for (const PartitionWindow& w : plan_.partitions) {
    if (now < w.start || now >= w.end) continue;
    if (WindowCuts(w, a, b, *topology_)) return true;
  }
  return false;
}

bool FaultInjector::DrawLoss() {
  const double p = plan_.loss;
  if (p <= 0) return false;  // never draw on a lossless network
  if (!rng_.Bernoulli(p)) return false;
  ++injected_drops_;
  return true;
}

bool FaultInjector::DrawSilentCrash() {
  const double p = plan_.silent_crash_probability;
  if (p <= 0) return false;
  if (!rng_.Bernoulli(p)) return false;
  ++silent_crashes_;
  return true;
}

void FaultInjector::MarkSilent(PeerAddress address) {
  if (address < silent_.size()) silent_[address] = 1;
}

void FaultInjector::ClearSilent(PeerAddress address) {
  if (address < silent_.size()) silent_[address] = 0;
}

bool FaultInjector::SuppressBounce(PeerAddress address) {
  if (address >= silent_.size() || silent_[address] == 0) return false;
  ++bounces_suppressed_;
  return true;
}

}  // namespace flower
