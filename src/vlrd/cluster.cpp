#include "vlrd/cluster.hpp"

namespace vl::vlrd {

Cluster::Cluster(sim::EventQueue& eq, mem::Hierarchy& hier,
                 const sim::VlrdConfig& cfg)
    : cfg_(cfg), table_(cfg.addr_table_capacity) {
  check_device_count(cfg.num_devices);
  devices_.reserve(cfg.num_devices);
  for (std::uint32_t i = 0; i < cfg.num_devices; ++i)
    devices_.push_back(std::make_unique<Vlrd>(eq, hier, cfg));
}

std::optional<std::pair<Vlrd*, Sqi>> Cluster::resolve(Addr dev_va) {
  if (cfg_.addressing == sim::Addressing::kAddrTable) {
    const auto hit = table_.lookup(dev_va);
    if (!hit) return std::nullopt;  // unmapped device address: fault
    return std::make_pair(&device(hit->vlrd_id), hit->sqi);
  }
  const DeviceAddr d = decode(dev_va);
  return std::make_pair(&device(d.vlrd_id), d.sqi);
}

VlrdStats Cluster::total_stats() const {
  VlrdStats s;
  for (const auto& d : devices_) {
    const VlrdStats& t = d->stats();
    s.pushes += t.pushes;
    s.push_nacks += t.push_nacks;
    s.push_quota_nacks += t.push_quota_nacks;
    s.fetches += t.fetches;
    s.fetch_nacks += t.fetch_nacks;
    s.matches += t.matches;
    s.inject_ok += t.inject_ok;
    s.inject_retry += t.inject_retry;
    s.pipeline_cycles += t.pipeline_cycles;
  }
  return s;
}

}  // namespace vl::vlrd
