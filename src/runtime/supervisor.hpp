#pragma once
// The "supervisor" / kernel-module emulation (paper § III-C, Fig. 8b).
//
// SQIs behave like POSIX shared-memory file handles: a named shm_open with
// the VL_QUEUE flag allocates (or reopens) a SQI; vl_mmap maps a device
// page for that SQI into the caller's "address space" and the user-space
// wrapper sub-divides the 4 KiB page into 64 B-aligned endpoint addresses
// tracked by a bit-vector (Fig. 9). PROT_WRITE pages are producer
// endpoints, PROT_READ pages are consumer endpoints.

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "vlrd/addr_table.hpp"
#include "vlrd/addressing.hpp"

namespace vl::runtime {

enum class Prot { kRead, kWrite };  // consumer / producer endpoint pages

/// One mapped device page with its 64-slot endpoint allocation bit-vector.
struct MappedPage {
  std::uint32_t vlrd_id = 0;
  Sqi sqi = 0;
  Prot prot = Prot::kRead;
  std::uint32_t page = 0;
  std::uint64_t used = 0;  // bit i set => slot i allocated
};

class Supervisor {
 public:
  static constexpr int kMaxSqi = 1 << vlrd::kSqiBits;

  /// `num_devices` routing devices share the queue namespace; fresh queues
  /// are placed on devices round-robin (each device has its own linkTab,
  /// so its own kMaxSqi SQIs).
  explicit Supervisor(std::uint32_t num_devices = 1);

  /// shm_open(name, O_RDWR, VL_QUEUE): returns a queue descriptor (device
  /// id and SQI packed as `vlrd_id * kMaxSqi + sqi`; with one device this
  /// is simply the SQI), allocating a fresh queue on first open of `name`.
  /// Returns -1 when every device's linkTab is exhausted.
  int shm_open(const std::string& name);

  /// Split a descriptor into its device id / SQI halves.
  static std::uint32_t desc_device(int desc) {
    return static_cast<std::uint32_t>(desc) / kMaxSqi;
  }
  static Sqi desc_sqi(int desc) {
    return static_cast<Sqi>(static_cast<std::uint32_t>(desc) % kMaxSqi);
  }

  /// shm_unlink: removes the name; the SQI is recycled once all pages for
  /// it have been unmapped.
  void shm_unlink(const std::string& name);

  /// Switch to the § III-C2 address-table scheme: pages come from a compact
  /// bump allocator and each mmap installs a CAM row in `table`. The table
  /// must outlive the supervisor. Call before the first vl_mmap.
  void attach_addr_table(vlrd::AddrTable* table) { table_ = table; }
  bool table_mode() const { return table_ != nullptr; }

  /// mmap(nullptr, 4 KiB, prot, VL_QUEUE, desc, 0): returns the device VA
  /// of a fresh page mapping for this queue descriptor. std::nullopt when
  /// the 32-page budget (Fig. 9 bits 17:12) is exhausted, or — in table
  /// mode — when the routing CAM is full.
  std::optional<Addr> vl_mmap(int desc, Prot prot);

  /// Device PA-window bytes reserved under the current scheme (the
  /// § III-C2 address-space cost): the full fixed bit-field window, or
  /// 4 KiB per actually-mapped page in table mode.
  Addr pa_window_bytes() const;

  /// Sub-allocate one 64 B endpoint address within a mapped page.
  std::optional<Addr> alloc_endpoint(Addr page_va);

  /// Release one endpoint address (munmap of a sub-range).
  void free_endpoint(Addr endpoint_va);

  /// Unmap a whole page.
  void vl_munmap(Addr page_va);

  bool sqi_open(int desc) const {
    const std::uint32_t dev = desc_device(desc);
    return desc >= 0 && dev < sqi_used_.size() &&
           sqi_used_[dev][desc_sqi(desc)];
  }
  std::uint32_t num_devices() const {
    return static_cast<std::uint32_t>(sqi_used_.size());
  }

 private:
  static constexpr std::uint32_t kPagesPerSqi = 32;

  std::map<std::string, int> names_;               // name -> descriptor
  std::vector<std::array<bool, kMaxSqi>> sqi_used_;  // [device][sqi]
  std::uint32_t next_device_ = 0;                  // round-robin placement
  std::map<Addr, MappedPage> pages_;               // page VA -> state
  std::map<int, std::uint32_t> next_page_;         // per-descriptor pages
  vlrd::AddrTable* table_ = nullptr;               // kAddrTable scheme
  std::uint32_t compact_pages_ = 0;                // bump allocator (table)
};

}  // namespace vl::runtime
