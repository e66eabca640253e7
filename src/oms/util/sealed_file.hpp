/// \file sealed_file.hpp
/// \brief The one on-disk container of the library's binary snapshots,
///        checkpoints ("OMSCKPT1", stream/checkpoint) and partition artifacts
///        ("OMSPART1", api/partition_artifact). Little-endian:
///
///     u64 magic | head | u64 payload length | payload | u32 CRC-32 (IEEE)
///
/// with the CRC over every earlier byte and nothing after it. The formats
/// differ in magic and head (an artifact's head is empty). A write goes to
/// `<path>.tmp` and is renamed into place, so one that fails or dies midway
/// leaves the previous file intact. A read takes one buffer of the file's
/// exact size and checks magic, length and CRC before any field is parsed;
/// every defect is an oms::IoError naming the file.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace oms {

/// A read and checked sealed file.
class SealedFile {
public:
  /// Everything between the magic and the CRC: head, length, payload.
  [[nodiscard]] std::span<const char> body() const noexcept;
  /// The payload behind the first \p head_bytes of body(); throws IoError
  /// unless its length prefix matches the bytes left.
  [[nodiscard]] std::span<const char> payload(std::size_t head_bytes) const;

private:
  friend SealedFile read_sealed_file(const std::string& path, std::uint64_t magic,
                                     const char* what);
  std::string path_;
  const char* what_ = "";
  std::vector<char> bytes_; ///< the whole file
};

/// Replace \p path by a sealed file whose payload is the concatenation of
/// \p payload's parts, each written from its own memory; \p what
/// ("checkpoint", "artifact") names the format in errors. Returns the file
/// size. On failure the tmp file is removed and IoError thrown.
std::uint64_t write_sealed_file(const std::string& path, std::uint64_t magic,
                                std::span<const char> head,
                                std::initializer_list<std::span<const char>> payload,
                                const char* what);

/// Read \p path and check magic, length and CRC; throws IoError otherwise.
[[nodiscard]] SealedFile read_sealed_file(const std::string& path,
                                          std::uint64_t magic, const char* what);

} // namespace oms
