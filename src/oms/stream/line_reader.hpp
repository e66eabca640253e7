/// \file line_reader.hpp
/// \brief The buffered raw-read machinery shared by the disk-streaming
///        parsers (METIS node stream, SNAP edge-list stream).
///
/// One reusable chunk buffer, lines located with memchr, integers parsed in
/// place — no per-line getline, no per-line string copies.
///
/// Terminator contract: the byte just past every line next_line() returns is
/// readable and is neither a digit nor a blank. It is the line's '\n'; for a
/// final line without one, the reader writes a '\n' into the byte of slack
/// that refill() always leaves after the data. IntScanner relies on it to
/// scan blanks and digits without testing for the end of the line. Malformed
/// *content* is the caller's concern; this layer only raises oms::IoError
/// for I/O-level failures (unopenable file, read error). Transient read
/// failures (EINTR/EAGAIN, or an injected FaultSite::kReadTransient) are
/// retried with exponential backoff before giving up.
#pragma once

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "oms/telemetry/metrics.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

/// Whitespace-separated integer scanner over one line returned by
/// BufferedLineReader::next_line (whose terminator stops every scan loop).
/// Non-numeric bytes are a *content* error, reported through the caller's
/// error handler.
class IntScanner {
public:
  explicit IntScanner(std::string_view line) noexcept
      : cur_(line.data()), end_(line.data() + line.size()) {}

  /// True and \p out filled if another token exists; false at end of line.
  /// \p on_error is invoked (and must not return) on a malformed token.
  template <typename OnError>
  bool next(std::int64_t& out, OnError&& on_error) {
    while (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\r') {
      ++cur_;
    }
    if (cur_ >= end_) {
      return false;
    }
    // Fast path: bare digit runs (every token of a well-formed file). The
    // terminator ends the run, so the loop tests nothing but the digit; up
    // to 18 digits cannot overflow int64. Signs, longer runs and junk fall
    // back to from_chars for identical semantics including range errors.
    std::uint64_t value = 0;
    const char* p = cur_;
    for (unsigned digit; (digit = static_cast<unsigned>(*p) - '0') <= 9; ++p) {
      value = value * 10 + digit;
    }
    if (p > cur_ && p - cur_ <= 18) {
      out = static_cast<std::int64_t>(value);
      cur_ = p;
      return true;
    }
    const auto [ptr, ec] = std::from_chars(cur_, end_, out);
    if (ec != std::errc{}) {
      on_error();
    }
    cur_ = ptr;
    return true;
  }

private:
  const char* cur_;
  const char* end_;
};

/// Buffered line-by-line file reader. The view returned by next_line()
/// borrows the chunk buffer and dies at the next call; lines longer than the
/// buffer grow it transparently.
class BufferedLineReader {
public:
  explicit BufferedLineReader(const std::string& path, std::size_t buffer_bytes)
      : file_(std::fopen(path.c_str(), "rb")), path_(path) {
    if (file_ == nullptr) {
      throw IoError("cannot open graph stream file '" + path + "'");
    }
    // The chunk buffer *is* the buffering; a second stdio copy would only
    // cost memcpys. Tiny capacities are allowed (tests use them to exercise
    // the refill seams) but need room for one memmove-and-read step.
    buffer_.resize(buffer_bytes < 64 ? 64 : buffer_bytes);
    std::setvbuf(file_.get(), nullptr, _IONBF, 0);
  }

  BufferedLineReader(const BufferedLineReader&) = delete;
  BufferedLineReader& operator=(const BufferedLineReader&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// 1-based number of the line most recently returned by next_line().
  [[nodiscard]] std::uint64_t line_no() const noexcept { return line_no_; }

  /// File offset of the first byte that next_line() has not yet returned.
  [[nodiscard]] std::uint64_t next_offset() const noexcept {
    return consumed_base_ + pos_;
  }

  /// Next raw line (without the newline); false at end of file.
  [[nodiscard]] bool next_line(std::string_view& line) {
    while (true) {
      const std::size_t search_from = pos_ + scanned_;
      if (search_from < end_) {
        const void* nl =
            std::memchr(buffer_.data() + search_from, '\n', end_ - search_from);
        if (nl != nullptr) {
          const auto nl_pos = static_cast<std::size_t>(
              static_cast<const char*>(nl) - buffer_.data());
          line = std::string_view(buffer_.data() + pos_, nl_pos - pos_);
          pos_ = nl_pos + 1;
          scanned_ = 0;
          ++line_no_;
          telemetry::metric_add(telemetry::Counter::kStreamLinesParsed);
          return true;
        }
      }
      if (eof_) {
        if (pos_ < end_) { // final line without a trailing newline
          buffer_[end_] = '\n'; // its terminator, in refill()'s slack byte
          line = std::string_view(buffer_.data() + pos_, end_ - pos_);
          pos_ = end_;
          scanned_ = 0;
          ++line_no_;
          telemetry::metric_add(telemetry::Counter::kStreamLinesParsed);
          return true;
        }
        return false;
      }
      scanned_ = end_ - pos_; // everything so far holds no newline
      refill();
    }
  }

  /// Seek back to \p offset and resume counting lines from \p line_no (used
  /// by rewind(): the caller remembers where its data section starts).
  void seek(std::uint64_t offset, std::uint64_t line_no) {
    // 64-bit seek: std::fseek takes long, which truncates >= 2 GiB offsets
    // on LLP64/LP32 platforms; graphs that size are exactly the
    // disk-streaming use case.
#if defined(_WIN32)
    const int rc = _fseeki64(file_.get(), static_cast<__int64>(offset), SEEK_SET);
#else
    const int rc = fseeko(file_.get(), static_cast<off_t>(offset), SEEK_SET);
#endif
    if (rc != 0) {
      throw IoError(path_ + ": cannot seek back to the data section");
    }
    pos_ = 0;
    end_ = 0;
    scanned_ = 0;
    eof_ = false;
    consumed_base_ = offset;
    line_no_ = line_no;
  }

private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept { std::fclose(f); }
  };

  /// Slide the unconsumed tail to the front and read another chunk, leaving
  /// at least one byte of slack after the data for a final line's terminator.
  void refill() {
    if (pos_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + pos_, end_ - pos_);
      consumed_base_ += pos_;
      end_ -= pos_;
      pos_ = 0;
    }
    if (end_ + 1 == buffer_.size()) {
      buffer_.resize(buffer_.size() * 2); // line longer than the buffer: grow
    }
    const std::size_t got = read_with_retry(buffer_.size() - end_ - 1);
    if (got == 0) {
      eof_ = true;
      return;
    }
    if (fault_fires(FaultSite::kReadCorrupt)) {
      corrupt_chunk(got);
    }
    end_ += got;
  }

  /// One fread of up to \p want bytes into buffer_[end_..], retrying transient
  /// failures (EINTR/EAGAIN from a flaky mount or signal, or an injected
  /// kReadTransient) with exponential backoff. Hard errors — anything that
  /// persists past kMaxReadRetries, or a non-transient errno — throw IoError.
  [[nodiscard]] std::size_t read_with_retry(std::size_t want) {
    static constexpr int kMaxReadRetries = 4;
    for (int attempt = 0;; ++attempt) {
      bool failed;
      bool transient;
      // Injected failures are decided *before* the fread: a simulated failure
      // after a successful read would advance the file position and silently
      // drop the bytes it returned.
      if (fault_fires(FaultSite::kReadError)) {
        failed = true;
        transient = false;
      } else if (fault_fires(FaultSite::kReadTransient)) {
        failed = true;
        transient = true;
      } else {
        // kReadShort: deliver a 1-byte read. Not a failure — the caller must
        // make progress on arbitrarily short reads without losing bytes.
        const std::size_t ask = fault_fires(FaultSite::kReadShort) ? 1 : want;
        errno = 0;
        const std::size_t got =
            std::fread(buffer_.data() + end_, 1, ask, file_.get());
        failed = got == 0 && std::ferror(file_.get()) != 0;
        transient = failed && (errno == EINTR || errno == EAGAIN);
        if (!failed) {
          telemetry::metric_add(telemetry::Counter::kStreamBytesRead, got);
          return got;
        }
        std::clearerr(file_.get());
      }
      if (!transient || attempt >= kMaxReadRetries) {
        throw IoError(path_ + ":" + std::to_string(line_no_) + ": read error" +
                      (transient ? " (transient, retries exhausted)" : ""));
      }
      telemetry::metric_add(telemetry::Counter::kStreamReadRetries);
      std::this_thread::sleep_for(std::chrono::milliseconds(1LL << attempt));
    }
  }

  /// kReadCorrupt payload: flip the last non-newline byte of the fresh chunk
  /// to 'x'. Deliberately never a '\n' — merging two lines could yield bytes
  /// that still parse, i.e. a *silent* corruption, whereas the contract under
  /// test is "corruption surfaces as a content error or a changed result,
  /// never a hang or crash".
  void corrupt_chunk(std::size_t got) {
    for (std::size_t i = end_ + got; i > end_; --i) {
      if (buffer_[i - 1] != '\n') {
        buffer_[i - 1] = 'x';
        return;
      }
    }
  }

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;     ///< first unconsumed byte in buffer_
  std::size_t end_ = 0;     ///< one past the last valid byte in buffer_
  std::size_t scanned_ = 0; ///< bytes past pos_ already searched for '\n'
  bool eof_ = false;
  std::uint64_t consumed_base_ = 0; ///< file offset of buffer_[0]
  std::uint64_t line_no_ = 0;
};

} // namespace oms
