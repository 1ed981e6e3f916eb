#include "fault/spec.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/clause.hpp"
#include "common/rng.hpp"

namespace vl::fault {

namespace {

/// Clause kind names, in FaultKind order.
constexpr const char* kKinds[] = {"spike", "partition", "stall",
                                  "loss",  "dup",       "flash"};

constexpr std::uint64_t kMaxRandEvents = 4096;

FaultEvent parse_event(const clause::Clause& c) {
  FaultEvent e;
  e.kind = static_cast<FaultKind>(c.kind);
  if (!c.dur) c.fail("window must be START+DURATION");
  e.start = c.at;
  e.duration = *c.dur;
  if (e.duration < 1) c.fail("duration must be >= 1");

  for (const auto& [k, v] : c.params) {
    if (k == "src") e.src = static_cast<int>(c.u64(v, clause::kMaxIndex));
    else if (k == "dst") e.dst = static_cast<int>(c.u64(v, clause::kMaxIndex));
    else if (k == "shard")
      e.shard = static_cast<int>(c.u64(v, clause::kMaxIndex));
    else if (k == "extra") e.extra = c.u64(v, clause::kMaxTick);
    else if (k == "every")
      e.every = static_cast<std::uint32_t>(
          c.u64(v, std::numeric_limits<std::uint32_t>::max()));
    else if (k == "class") e.cls = static_cast<int>(c.u64(v, kQosClasses - 1));
    else if (k == "factor") e.factor = c.f64(v);
    else c.fail("unknown parameter '" + k + "'");
  }

  if (e.kind == FaultKind::kLinkSpike && e.extra < 1)
    c.fail("spike needs extra >= 1");
  if ((e.kind == FaultKind::kChanLoss || e.kind == FaultKind::kChanDup) &&
      e.every < 1)
    c.fail("loss/dup need every >= 1");
  if (e.kind == FaultKind::kFlashCrowd && e.factor <= 0.0)
    c.fail("flash needs factor > 0");
  return e;
}

}  // namespace

const char* to_string(FaultKind k) {
  return kKinds[static_cast<std::size_t>(k)];
}

bool FaultSpec::has(FaultKind k) const {
  for (const auto& e : events)
    if (e.kind == k) return true;
  return false;
}

Tick FaultSpec::end_tick() const {
  Tick end = 0;
  for (const auto& e : events) end = std::max(end, e.start + e.duration);
  return end;
}

std::string FaultSpec::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const bool link =
        e.kind == FaultKind::kLinkSpike || e.kind == FaultKind::kPartition;
    os << (i ? ";" : "") << to_string(e.kind) << "@" << e.start << "+"
       << e.duration;
    char sep = ':';
    auto add = [&os, &sep](const char* k, auto v) {
      os << sep << k << "=" << v;
      sep = ',';
    };
    if (e.kind == FaultKind::kLinkSpike) add("extra", e.extra);
    if (link && e.src >= 0) add("src", e.src);
    if (link && e.dst >= 0) add("dst", e.dst);
    if (e.kind == FaultKind::kChanLoss || e.kind == FaultKind::kChanDup)
      add("every", e.every);
    if (e.kind == FaultKind::kFlashCrowd) add("factor", e.factor);
    if (e.kind == FaultKind::kFlashCrowd && e.cls >= 0) add("class", e.cls);
    if (!link && e.shard >= 0) add("shard", e.shard);
  }
  return os.str();
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  for (const std::string& t : clause::clauses(text)) {
    if (t.rfind("rand:", 0) != 0) {
      spec.events.push_back(parse_event(clause::parse(t, "fault", kKinds)));
      continue;
    }
    const clause::Clause c{.text = t, .grammar = "fault"};
    const std::vector<std::string> args = clause::tokenize(t.substr(5), ',');
    if (args.size() > 3) c.fail("rand takes SEED[,COUNT[,HORIZON]]");
    const std::uint64_t seed =
        c.u64(args[0], std::numeric_limits<std::uint64_t>::max());
    const auto count = static_cast<int>(
        args.size() > 1 ? c.u64(args[1], kMaxRandEvents) : 8);
    const Tick horizon =
        args.size() > 2 ? c.u64(args[2], clause::kMaxTick) : 200000;
    const FaultSpec r = random(seed, count, horizon);
    spec.events.insert(spec.events.end(), r.events.begin(), r.events.end());
  }
  return spec;
}

FaultSpec FaultSpec::random(std::uint64_t seed, int count, Tick horizon) {
  if (horizon < 64) horizon = 64;
  FaultSpec spec;
  Xoshiro256 rng(seed ^ 0xfa017ull * 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = static_cast<FaultKind>(rng.below(6));
    e.start = horizon / 8 + rng.below(horizon / 2);
    e.duration = 1 + horizon / 16 + rng.below(horizon / 8);
    switch (e.kind) {
      case FaultKind::kLinkSpike:
        e.src = static_cast<int>(rng.below(8));
        e.dst = static_cast<int>(rng.below(8));
        e.extra = 64 + rng.below(1024);
        break;
      case FaultKind::kPartition:
        e.src = static_cast<int>(rng.below(8));
        e.dst = static_cast<int>(rng.below(8));
        break;
      case FaultKind::kDeviceStall:
        e.shard = static_cast<int>(rng.below(8));
        break;
      case FaultKind::kChanLoss:
      case FaultKind::kChanDup:
        e.every = 2 + static_cast<std::uint32_t>(rng.below(6));
        e.shard = static_cast<int>(rng.below(8));
        break;
      case FaultKind::kFlashCrowd:
        e.factor = static_cast<double>(1 + rng.below(6)) / 8.0;
        e.cls = static_cast<int>(rng.below(kQosClasses));
        break;
    }
    spec.events.push_back(e);
  }
  return spec;
}

}  // namespace vl::fault
