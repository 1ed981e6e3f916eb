#include "runtime/supervisor.hpp"

#include <cassert>

namespace vl::runtime {

Supervisor::Supervisor(std::uint32_t num_devices) {
  vlrd::check_device_count(num_devices);
  sqi_used_.resize(num_devices);
  for (auto& dev : sqi_used_) dev.fill(false);
}

int Supervisor::shm_open(const std::string& name) {
  if (auto it = names_.find(name); it != names_.end()) return it->second;
  // Round-robin placement across devices; fall through to any device with
  // a free SQI when the preferred one is full.
  const std::uint32_t n = num_devices();
  for (std::uint32_t probe = 0; probe < n; ++probe) {
    const std::uint32_t dev = (next_device_ + probe) % n;
    for (int s = 0; s < kMaxSqi; ++s) {
      if (!sqi_used_[dev][s]) {
        sqi_used_[dev][s] = true;
        const int desc = static_cast<int>(dev) * kMaxSqi + s;
        names_[name] = desc;
        next_device_ = (dev + 1) % n;
        return desc;
      }
    }
  }
  return -1;  // every device's linkTab is exhausted
}

void Supervisor::shm_unlink(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) return;
  const int desc = it->second;
  names_.erase(it);
  // Recycle only when no pages still reference the queue.
  for (const auto& [va, pg] : pages_)
    if (pg.vlrd_id == desc_device(desc) && pg.sqi == desc_sqi(desc)) return;
  sqi_used_[desc_device(desc)][desc_sqi(desc)] = false;
  next_page_.erase(desc);
}

std::optional<Addr> Supervisor::vl_mmap(int desc, Prot prot) {
  if (!sqi_open(desc)) return std::nullopt;
  std::uint32_t& next = next_page_[desc];
  if (next >= kPagesPerSqi) return std::nullopt;
  const std::uint32_t dev = desc_device(desc);
  const Sqi sqi = desc_sqi(desc);
  Addr va;
  if (table_mode()) {
    // Compact allocation: sequential 4 KiB frames, CAM row per page.
    va = vlrd::kDeviceBase + Addr{compact_pages_} * 4096;
    if (!table_->insert(va, dev, sqi)) return std::nullopt;  // CAM full
    ++compact_pages_;
  } else {
    va = vlrd::encode({dev, sqi, next, /*slot64=*/0});
  }
  const std::uint32_t page = next++;
  pages_[va] = MappedPage{dev, sqi, prot, page, 0};
  return va;
}

std::optional<Addr> Supervisor::alloc_endpoint(Addr page_va) {
  auto it = pages_.find(page_va);
  if (it == pages_.end()) return std::nullopt;
  MappedPage& pg = it->second;
  for (std::uint32_t slot = 0; slot < 64; ++slot) {
    if (!(pg.used & (std::uint64_t{1} << slot))) {
      pg.used |= std::uint64_t{1} << slot;
      // The 64 B slot offset occupies the address bits below the page
      // frame under both addressing schemes (Fig. 9 bits 11:6).
      return page_va + (Addr{slot} << kLineShift);
    }
  }
  return std::nullopt;  // page fully sub-allocated
}

void Supervisor::free_endpoint(Addr endpoint_va) {
  const Addr page_va = endpoint_va & ~Addr{0xfff};
  const std::uint32_t slot =
      static_cast<std::uint32_t>((endpoint_va >> kLineShift) & 0x3f);
  auto it = pages_.find(page_va);
  if (it == pages_.end()) return;
  it->second.used &= ~(std::uint64_t{1} << slot);
}

void Supervisor::vl_munmap(Addr page_va) {
  auto it = pages_.find(page_va);
  if (it == pages_.end()) return;
  assert(it->second.used == 0 && "unmapping a page with live endpoints");
  if (table_mode()) table_->erase(page_va);
  pages_.erase(it);
}

Addr Supervisor::pa_window_bytes() const {
  if (table_mode()) return vlrd::AddrTable::table_window_bytes(compact_pages_);
  return Addr{num_devices()} * vlrd::AddrTable::bitfield_window_bytes();
}

}  // namespace vl::runtime
