#include "replay/lifecycle.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/clause.hpp"

namespace vl::replay {

namespace {
/// Clause kind names, in LifecycleEvent::Kind order.
constexpr const char* kKinds[] = {"join", "leave", "reconfig"};
}  // namespace

const char* to_string(LifecycleEvent::Kind k) {
  return kKinds[static_cast<std::size_t>(k)];
}

bool LifecycleSpec::has_reconfig() const {
  for (const auto& e : events)
    if (e.kind == LifecycleEvent::Kind::kReconfig) return true;
  return false;
}

bool LifecycleSpec::has_churn() const {
  for (const auto& e : events)
    if (e.kind != LifecycleEvent::Kind::kReconfig) return true;
  return false;
}

std::string LifecycleSpec::summary() const {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += ';';
    out += to_string(e.kind);
    out += '@' + std::to_string(e.at);
    if (e.kind == LifecycleEvent::Kind::kReconfig) {
      if (e.channel >= 0) out += ":channel=" + std::to_string(e.channel);
    } else {
      out += ":tenant=" + e.tenant;
    }
  }
  return out;
}

LifecycleSpec LifecycleSpec::parse(const std::string& text) {
  LifecycleSpec spec;
  for (const std::string& t : clause::clauses(text)) {
    const clause::Clause c = clause::parse(t, "lifecycle", kKinds);
    LifecycleEvent e;
    e.kind = static_cast<LifecycleEvent::Kind>(c.kind);
    if (c.dur) c.fail("lifecycle events take a tick, not a window");
    e.at = c.at;
    const bool reconfig = e.kind == LifecycleEvent::Kind::kReconfig;
    for (const auto& [k, v] : c.params) {
      if (k == "tenant" && !reconfig && !v.empty())
        e.tenant = v;
      else if (k == "channel" && reconfig)
        e.channel = static_cast<int>(c.u64(v, clause::kMaxIndex));
      else
        c.fail("unknown or empty parameter '" + k + "'");
    }
    if (!reconfig && e.tenant.empty()) c.fail("join/leave need tenant=NAME");
    spec.events.push_back(e);
  }
  return spec;
}

LifecyclePlane::LifecyclePlane(const LifecycleSpec& spec,
                               const std::vector<std::string>& tenant_names)
    : spec_(spec) {
  const std::size_t n = tenant_names.size();
  windows_.resize(n);
  starts_active_.assign(n, true);
  reconfig_fired_.assign(spec_.events.size(), {});

  // Per-tenant event streams, tick-ascending (stable within equal ticks).
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<const LifecycleEvent*> evs;
    for (const auto& e : spec_.events)
      if (e.kind != LifecycleEvent::Kind::kReconfig &&
          e.tenant == tenant_names[t])
        evs.push_back(&e);
    std::stable_sort(evs.begin(), evs.end(),
                     [](const LifecycleEvent* a, const LifecycleEvent* b) {
                       return a->at < b->at;
                     });
    bool active = evs.empty() ||
                  evs.front()->kind != LifecycleEvent::Kind::kJoin;
    starts_active_[t] = active;
    Tick open = 0;  // start of the current inactive span
    for (const auto* e : evs) {
      if (e->kind == LifecycleEvent::Kind::kLeave && active) {
        open = e->at;
        active = false;
      } else if (e->kind == LifecycleEvent::Kind::kJoin && !active) {
        windows_[t].push_back({open, e->at});
        active = true;
      }
    }
    if (!active) windows_[t].push_back({open, kNever});
  }

  for (const auto& e : spec_.events) {
    if (e.kind == LifecycleEvent::Kind::kReconfig) continue;
    if (std::find(boundaries_.begin(), boundaries_.end(), e.at) ==
        boundaries_.end())
      boundaries_.push_back(e.at);
    bool known = false;
    for (const auto& name : tenant_names)
      if (name == e.tenant) known = true;
    if (!known)
      throw std::invalid_argument("lifecycle spec: unknown tenant '" +
                                  e.tenant + "'");
  }
  std::sort(boundaries_.begin(), boundaries_.end());
}

Tick LifecyclePlane::next_active(int tenant, Tick now) const {
  for (const auto& w : windows_[static_cast<std::size_t>(tenant)]) {
    if (now < w.from) return 0;      // before this inactive span: active
    if (now < w.to) return w.to;     // inside it: sleep to the join (or never)
  }
  return 0;
}

bool LifecyclePlane::tenant_active_at(int tenant, Tick now) const {
  return next_active(tenant, now) == 0;
}

bool LifecyclePlane::take_reconfig(int chan, Tick now) {
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const auto& e = spec_.events[i];
    if (e.kind != LifecycleEvent::Kind::kReconfig) continue;
    if (e.at > now) continue;
    if (e.channel >= 0 && e.channel != chan) continue;
    auto& fired = reconfig_fired_[i];
    if (std::find(fired.begin(), fired.end(), chan) != fired.end()) continue;
    fired.push_back(chan);
    return true;
  }
  return false;
}

}  // namespace vl::replay
