#pragma once
// Device-memory physical-address encoding for the VLRD (paper Fig. 9).
//
//   bit 51..J+1 : VLRD PA space selector (constant base)
//   bit  J..N+1 : VLRD id (multiple routing devices)
//   bit  N..18  : SQI
//   bit  17..12 : page index (up to 32 x 4 KiB pages per SQI)
//   bit  11..6  : 64 B-aligned endpoint offset within the page
//   bit   5..0  : byte offset (always 0 for endpoint addresses)
//
// With 1 VLRD and 64 SQIs, N = 23 and the device space occupies
// 64 SQIs x 32 pages x 4 KiB = 8 MiB of PA space (cf. the paper's example:
// 16 SQIs with N=22, J=26 uses 67 MiB of address space, not memory).

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace vl::vlrd {

inline constexpr int kSqiShift = 18;
inline constexpr int kSqiBits = 6;    // 64 SQIs (Table III linkTab size)
inline constexpr int kPageShift = 12;
inline constexpr int kPageBits = 6;   // up to 32 pages fits; 6 bits reserved
inline constexpr int kVlrdIdShift = kSqiShift + kSqiBits;  // J..N+1
inline constexpr int kVlrdIdBits = 4;

/// Throws std::invalid_argument unless `n` routing devices fit the VLRD-id
/// bit field: 1 <= n <= 2^kVlrdIdBits.
inline void check_device_count(std::uint32_t n) {
  if (n < 1 || n > (1u << kVlrdIdBits))
    throw std::invalid_argument(
        "VLRD device count " + std::to_string(n) + " outside [1, " +
        std::to_string(1u << kVlrdIdBits) + "]: the VLRD id has " +
        std::to_string(kVlrdIdBits) + " address bits (Fig. 9)");
}

/// Base of the VLRD device PA window (bit 40 set — far above any
/// cacheable allocation the runtime hands out).
inline constexpr Addr kDeviceBase = Addr{1} << 40;

struct DeviceAddr {
  std::uint32_t vlrd_id = 0;
  Sqi sqi = 0;
  std::uint32_t page = 0;
  std::uint32_t slot64 = 0;  ///< 64 B offset index within the page.
};

inline constexpr bool is_device_addr(Addr a) { return (a & kDeviceBase) != 0; }

inline constexpr Addr encode(const DeviceAddr& d) {
  return kDeviceBase |
         (Addr{d.vlrd_id} << kVlrdIdShift) |
         (Addr{d.sqi} << kSqiShift) |
         (Addr{d.page} << kPageShift) |
         (Addr{d.slot64} << kLineShift);
}

inline DeviceAddr decode(Addr a) {
  assert(is_device_addr(a));
  DeviceAddr d;
  d.vlrd_id = static_cast<std::uint32_t>((a >> kVlrdIdShift) &
                                         ((1u << kVlrdIdBits) - 1));
  d.sqi = static_cast<Sqi>((a >> kSqiShift) & ((1u << kSqiBits) - 1));
  d.page = static_cast<std::uint32_t>((a >> kPageShift) &
                                      ((1u << kPageBits) - 1));
  d.slot64 = static_cast<std::uint32_t>((a >> kLineShift) & 0x3f);
  return d;
}

}  // namespace vl::vlrd
