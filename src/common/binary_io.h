#ifndef GRALMATCH_COMMON_BINARY_IO_H_
#define GRALMATCH_COMMON_BINARY_IO_H_

/// \file binary_io.h
/// Endian-stable binary serialization primitives for the checkpoint format
/// (serve/sharded_checkpoint.h) and the RPC frames (net/wire.h). All
/// multi-byte integers are written little-endian byte by byte, so a
/// checkpoint written on any host loads on any other;
/// doubles are written as the little-endian bytes of their IEEE-754 bit
/// pattern, so round-trips are bit-exact. The reader bounds-checks every
/// read and returns a Status instead of crashing on truncated or corrupted
/// input.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gralmatch {

/// \brief Append-only little-endian encoder into an in-memory buffer.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern, little-endian: round-trips bit-exactly.
  void WriteDouble(double v);
  /// u64 length prefix followed by the raw bytes.
  void WriteString(std::string_view s);
  void WriteBytes(const void* data, size_t size);

  /// Overwrite the u64 previously written at `pos` (e.g. a length prefix
  /// back-patched after serializing directly into this buffer, instead of
  /// staging the payload in a second buffer). `pos + 8 <= size()` required.
  void PatchU64(size_t pos, uint64_t v);

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked little-endian decoder over a borrowed buffer.
///
/// Every Read* returns an IOError Status when fewer bytes remain than the
/// value needs — a truncated checkpoint surfaces as a clean error, never as
/// an out-of-bounds read. The buffer must outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadDouble(double* out);
  Status ReadString(std::string* out);
  /// Zero-copy variant: `out` borrows from the reader's buffer and is valid
  /// only while that buffer lives.
  Status ReadStringView(std::string_view* out);

  /// Read a u64 element count that the remaining bytes can plausibly hold
  /// (each element occupies at least `min_element_size` bytes). Rejecting
  /// impossible counts up front keeps a corrupted length prefix from
  /// triggering a multi-gigabyte allocation before the bounds checks fire.
  Status ReadCount(size_t min_element_size, uint64_t* out);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  Status Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
};

/// FNV-1a 64-bit offset basis: the hash of the empty buffer.
constexpr uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a 64-bit hash of a byte buffer (checkpoint payload checksum).
/// FNV-1a is a streaming hash, so `Fnv1a64(b, Fnv1a64(a))` equals the hash
/// of `a` followed by `b`: pass a previous digest as `seed` to extend it
/// over more bytes without rehashing the prefix.
uint64_t Fnv1a64(std::string_view data, uint64_t seed = kFnv1a64Basis);

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_BINARY_IO_H_
