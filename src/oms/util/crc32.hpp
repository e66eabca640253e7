/// \file crc32.hpp
/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the binary
///        snapshot formats: every sealed file (util/sealed_file) ends with
///        one, so truncation and bit flips surface as a clean oms::IoError
///        instead of silently read garbage.
///
/// Table-driven, one byte per step — these files are written once per
/// snapshot and read once per restore, so simplicity beats a slice-by-8
/// implementation here. The table is built at compile time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace oms {

namespace detail {

[[nodiscard]] consteval std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) != 0 ? 0xEDB88320U : 0U);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

} // namespace detail

/// Fold \p bytes into a running CRC. Start from crc32_init(), finish with
/// crc32_final(); chunks may be fed in any split.
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFU; }

[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                                std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    crc = (crc >> 8) ^ detail::kCrc32Table[(crc ^ p[i]) & 0xFFU];
  }
  return crc;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFU;
}

} // namespace oms
