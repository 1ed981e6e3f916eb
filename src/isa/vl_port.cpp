#include "isa/vl_port.hpp"

namespace vl::isa {

VlPort::VlPort(sim::Core& core, mem::Hierarchy& hier, vlrd::Cluster& devs,
               const sim::VlrdConfig& cfg)
    : core_(core), hier_(hier), devs_(devs), cfg_(cfg) {
  // On context swap the latched PA is cleared (§ III-B) and every pushable
  // bit in this core's private cache drops, so in-flight injections
  // targeting the outgoing thread are rejected rather than clobbering state.
  core_.add_ctx_switch_hook([this](int old_tid, int /*new_tid*/) {
    latched_.erase(old_tid);
    hier_.clear_pushable(core_.id());
  });
}

sim::Co<void> VlPort::vl_select(int tid, Addr va) {
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  // Brings the line into L1D in an exclusive state, "just as any store
  // would" — a miss pays the normal fill latency.
  const Tick lat = hier_.select_line(core_.id(), line_of(va));
  co_await sim::Delay(core_.eq(), lat);
  latched_[tid] = line_of(va);
  core_.release_port();
}

sim::Co<int> VlPort::vl_push(int tid, Addr dev_va) {
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  auto it = latched_.find(tid);
  if (it == latched_.end()) {
    core_.release_port();
    co_return kVlNoSelection;
  }
  const Addr line = it->second;
  latched_.erase(it);  // selection ends on completion either way
  const int rc = co_await push_selected(line, dev_va);
  core_.release_port();
  co_return rc;
}

sim::Co<int> VlPort::push_selected(Addr line, Addr dev_va) {
  mem::Line data;
  hier_.peek_line(line, data.data());
  // Resolve the endpoint address; the CAM scheme costs one extra pipeline
  // cycle per access and can fault on an unmapped page (§ III-C2).
  if (cfg_.addressing == sim::Addressing::kAddrTable)
    co_await sim::Delay(core_.eq(), cfg_.addr_table_extra);
  const auto res = devs_.resolve(dev_va);
  if (!res) co_return kVlFault;
  vlrd::Vlrd& dev = *res->first;
  const Sqi sqi = res->second;

  bool ack;
  vlrd::Vlrd::PushNack nack = vlrd::Vlrd::PushNack::kNone;
  if (cfg_.ideal) {
    ack = dev.push(sqi, data);  // zero-latency reference model
  } else {
    // Non-snooping device write: one bus hop out, bounded device response.
    const Tick arrive = hier_.device_hop(0);
    co_await sim::DelayUntil(core_.eq(), arrive);
    ack = dev.push(sqi, data);
    // Latch the NACK reason before suspending for the response delay —
    // another core's push to the same device lands in that window and
    // overwrites the device-side status.
    if (!ack) nack = dev.last_push_nack();
    const Tick resp = cfg_.device_lat > hier_.cfg().bus_hop
                          ? cfg_.device_lat - hier_.cfg().bus_hop
                          : 0;
    co_await sim::Delay(core_.eq(), resp);
  }

  if (ack) {
    // Copy-over leaves the producer line zeroed and Exclusive, ready for
    // the next enqueue without any further coherence traffic.
    hier_.zero_and_exclusive(core_.id(), line);
    co_return kVlOk;
  }
  co_return nack == vlrd::Vlrd::PushNack::kQuota ? kVlNackQuota : kVlNack;
}

sim::Co<int> VlPort::vl_select_push_burst(int tid, std::span<const Addr> vas,
                                          Addr dev_va,
                                          std::size_t* accepted) {
  *accepted = 0;
  if (vas.empty()) co_return kVlOk;
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  latched_.erase(tid);  // burst completion leaves no latched selection
  // Select every line of the run: each fill into Exclusive is real cache
  // work and is paid per line, burst or not.
  for (const Addr va : vas) {
    const Tick lat = hier_.select_line(core_.id(), line_of(va));
    co_await sim::Delay(core_.eq(), lat);
  }
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  if (cfg_.addressing == sim::Addressing::kAddrTable)
    co_await sim::Delay(core_.eq(), cfg_.addr_table_extra);
  const auto res = devs_.resolve(dev_va);
  if (!res) {
    core_.release_port();
    co_return kVlFault;
  }
  vlrd::Vlrd& dev = *res->first;
  const Sqi sqi = res->second;

  vlrd::Vlrd::PushNack nack = vlrd::Vlrd::PushNack::kNone;
  if (!cfg_.ideal) {
    // One bus transit for the whole run — the burst's amortization.
    const Tick arrive = hier_.device_hop(0);
    co_await sim::DelayUntil(core_.eq(), arrive);
  }
  for (const Addr va : vas) {
    mem::Line data;
    hier_.peek_line(line_of(va), data.data());
    if (!dev.push(sqi, data)) {
      nack = dev.last_push_nack();
      break;
    }
    // Copy-over leaves the producer line zeroed and Exclusive, ready for
    // the next enqueue without any further coherence traffic.
    hier_.zero_and_exclusive(core_.id(), line_of(va));
    ++*accepted;
  }
  if (!cfg_.ideal) {
    const Tick resp = cfg_.device_lat > hier_.cfg().bus_hop
                          ? cfg_.device_lat - hier_.cfg().bus_hop
                          : 0;
    co_await sim::Delay(core_.eq(), resp);
  }
  core_.release_port();
  if (*accepted == vas.size()) co_return kVlOk;
  co_return nack == vlrd::Vlrd::PushNack::kQuota ? kVlNackQuota : kVlNack;
}

sim::Co<int> VlPort::vl_select_fetch_burst(int tid, std::span<const Addr> vas,
                                           Addr dev_va,
                                           std::size_t* registered) {
  *registered = 0;
  if (vas.empty()) co_return kVlOk;
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  latched_.erase(tid);
  for (const Addr va : vas) {
    const Tick lat = hier_.select_line(core_.id(), line_of(va));
    co_await sim::Delay(core_.eq(), lat);
  }
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  if (cfg_.addressing == sim::Addressing::kAddrTable)
    co_await sim::Delay(core_.eq(), cfg_.addr_table_extra);
  const auto res = devs_.resolve(dev_va);
  if (!res) {
    core_.release_port();
    co_return kVlFault;
  }
  vlrd::Vlrd& dev = *res->first;
  const Sqi sqi = res->second;

  if (!cfg_.ideal) {
    const Tick arrive = hier_.device_hop(0);
    co_await sim::DelayUntil(core_.eq(), arrive);
  }
  // Register demand in line order, stopping at the first refusal so the
  // device's request FIFO stays a contiguous ring-order prefix (injections
  // must land in the order the consumer's polls visit the lines).
  int rc = kVlOk;
  for (const Addr va : vas) {
    const Addr line = line_of(va);
    if (!hier_.set_pushable(core_.id(), line, true)) {
      rc = kVlEvicted;  // line left the cache since its select
      break;
    }
    if (!dev.fetch(sqi, line, core_.id())) {
      hier_.set_pushable(core_.id(), line, false);
      rc = kVlNack;  // consBuf full
      break;
    }
    ++*registered;
  }
  if (!cfg_.ideal) {
    const Tick resp = cfg_.device_lat > hier_.cfg().bus_hop
                          ? cfg_.device_lat - hier_.cfg().bus_hop
                          : 0;
    co_await sim::Delay(core_.eq(), resp);
  }
  core_.release_port();
  co_return *registered == vas.size() ? kVlOk : rc;
}

sim::Co<int> VlPort::vl_fetch(int tid, Addr dev_va) {
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  auto it = latched_.find(tid);
  if (it == latched_.end()) {
    core_.release_port();
    co_return kVlNoSelection;
  }
  const Addr line = it->second;
  latched_.erase(it);
  const int rc = co_await fetch_selected(line, dev_va);
  core_.release_port();
  co_return rc;
}

sim::Co<int> VlPort::vl_select_fetch(int tid, Addr va, Addr dev_va) {
  co_await core_.acquire_port(tid);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  latched_.erase(tid);  // the select overwrites any earlier latch
  const Tick lat = hier_.select_line(core_.id(), line_of(va));
  co_await sim::Delay(core_.eq(), lat);
  co_await sim::Delay(core_.eq(), core_.cfg().issue_cost);
  const int rc = co_await fetch_selected(line_of(va), dev_va);
  core_.release_port();
  co_return rc;
}

sim::Co<int> VlPort::fetch_selected(Addr line, Addr dev_va) {
  if (!hier_.set_pushable(core_.id(), line, true))
    co_return kVlEvicted;  // line left the cache since vl_select
  if (cfg_.addressing == sim::Addressing::kAddrTable)
    co_await sim::Delay(core_.eq(), cfg_.addr_table_extra);
  const auto res = devs_.resolve(dev_va);
  if (!res) {
    hier_.set_pushable(core_.id(), line, false);
    co_return kVlFault;
  }
  vlrd::Vlrd& dev = *res->first;
  const Sqi sqi = res->second;

  bool ack;
  if (cfg_.ideal) {
    ack = dev.fetch(sqi, line, core_.id());
  } else {
    const Tick arrive = hier_.device_hop(0);
    co_await sim::DelayUntil(core_.eq(), arrive);
    ack = dev.fetch(sqi, line, core_.id());
    const Tick resp = cfg_.device_lat > hier_.cfg().bus_hop
                          ? cfg_.device_lat - hier_.cfg().bus_hop
                          : 0;
    co_await sim::Delay(core_.eq(), resp);
  }

  if (!ack) hier_.set_pushable(core_.id(), line, false);
  co_return ack ? kVlOk : kVlNack;
}

}  // namespace vl::isa
