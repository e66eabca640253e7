#include "oms/util/sealed_file.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "oms/util/crc32.hpp"
#include "oms/util/io_error.hpp"

namespace oms {
namespace {

constexpr std::size_t kWordBytes = sizeof(std::uint64_t); // magic, length
constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

[[nodiscard]] std::string describe(const char* what, const std::string& path) {
  return std::string(what) + " file '" + path + "'";
}

} // namespace

std::span<const char> SealedFile::body() const noexcept {
  return {bytes_.data() + kWordBytes, bytes_.size() - kWordBytes - kCrcBytes};
}

std::span<const char> SealedFile::payload(std::size_t head_bytes) const {
  const std::span<const char> all = body();
  std::uint64_t length = 0;
  if (head_bytes + kWordBytes <= all.size()) {
    std::memcpy(&length, all.data() + head_bytes, kWordBytes);
    if (length == all.size() - head_bytes - kWordBytes) {
      return all.subspan(head_bytes + kWordBytes);
    }
  }
  throw IoError(describe(what_, path_) + ": payload length disagrees with the file size");
}

std::uint64_t write_sealed_file(const std::string& path, std::uint64_t magic,
                                std::span<const char> head,
                                std::initializer_list<std::span<const char>> payload,
                                const char* what) {
  const std::string tmp = path + ".tmp";
  FilePtr file(std::fopen(tmp.c_str(), "wb"));
  if (file == nullptr) {
    throw IoError("cannot open " + describe(what, tmp) + " for writing");
  }
  std::uint32_t crc = crc32_init();
  std::uint64_t written = 0;
  const auto put = [&](const void* data, std::size_t bytes) {
    crc = crc32_update(crc, data, bytes);
    written += bytes;
    return bytes == 0 || std::fwrite(data, 1, bytes, file.get()) == bytes;
  };
  std::uint64_t length = 0;
  for (const std::span<const char> part : payload) {
    length += part.size();
  }
  bool ok = put(&magic, kWordBytes) && put(head.data(), head.size()) &&
            put(&length, kWordBytes);
  for (const std::span<const char> part : payload) {
    ok = ok && put(part.data(), part.size());
  }
  const std::uint32_t sealed_crc = crc32_final(crc);
  ok = ok && put(&sealed_crc, kCrcBytes);
  ok = std::fclose(file.release()) == 0 && ok; // fclose flushes the tail
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot write " + describe(what, tmp) + " and move it to '" + path + "'");
  }
  return written;
}

SealedFile read_sealed_file(const std::string& path, std::uint64_t magic,
                            const char* what) {
  const FilePtr file(std::fopen(path.c_str(), "rb"));
  struct stat st{};
  if (file == nullptr || ::fstat(::fileno(file.get()), &st) != 0 ||
      !S_ISREG(st.st_mode)) {
    throw IoError("cannot open " + describe(what, path) + " as a regular file");
  }
  if (static_cast<std::uint64_t>(st.st_size) < 2 * kWordBytes + kCrcBytes) {
    throw IoError(describe(what, path) + ": too short to be a " + what + " file");
  }
  SealedFile sealed;
  sealed.path_ = path;
  sealed.what_ = what;
  std::vector<char>& bytes = sealed.bytes_;
  bytes.resize(static_cast<std::size_t>(st.st_size));
  if (std::fread(bytes.data(), 1, bytes.size(), file.get()) != bytes.size()) {
    throw IoError("read error on " + describe(what, path));
  }
  const std::size_t covered = bytes.size() - kCrcBytes;
  std::uint64_t stored_magic = 0;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_magic, bytes.data(), kWordBytes);
  std::memcpy(&stored_crc, bytes.data() + covered, kCrcBytes);
  if (stored_magic != magic) {
    throw IoError(describe(what, path) + ": bad magic (not a " + what + " file)");
  }
  if (crc32_final(crc32_update(crc32_init(), bytes.data(), covered)) != stored_crc) {
    throw IoError(describe(what, path) + ": CRC mismatch (truncated or corrupt)");
  }
  return sealed;
}

} // namespace oms
