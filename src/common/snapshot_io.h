// Binary snapshot serialization substrate (DESIGN.md §11).
//
// SnapshotWriter/SnapshotReader implement a little-endian, fixed-width,
// length-prefixed encoding used by the campaign checkpoint format. The
// reader is bounds-checked with a sticky error: any out-of-range read fails
// the whole reader (subsequent reads return zero values) and status()
// reports the first failure with its byte offset, so deserialization code
// can read a whole record linearly and check once at the end — a truncated
// or bit-flipped snapshot can never crash or silently half-load.
//
// The encoding is deliberately dumb: no varints, no tags, no reflection.
// Every field is written and read in one fixed order; the format version in
// the file's frame is the only schema evolution mechanism.
//
// Every persisted record — campaign snapshots, fleet job specs, done
// records, corpus seeds, worker metrics — is one framed file, written and
// read by the single WriteFramedFile/ReadFramedFile pair below:
//
//   offset  size  field
//   0       8     magic (per record kind, e.g. "THMSNP01", "THMSEED1")
//   8       4     format version (u32 LE)
//   12      0|1   kind byte (campaign snapshots only)
//   12|13   8     payload size in bytes (u64 LE)
//   20|21   8     FNV-1a 64 checksum of the payload (u64 LE)
//   28|29   ...   payload (SnapshotWriter encoding)
//
// Writes are atomic (tmp + rename), so a reader never observes a torn file;
// readers validate magic, version, kind, size and checksum before any field
// is parsed, and every corruption mode maps to a kDataLoss Status naming the
// file.

#ifndef SRC_COMMON_SNAPSHOT_IO_H_
#define SRC_COMMON_SNAPSHOT_IO_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace themis {

// FNV-1a 64-bit checksum over a byte range (the snapshot payload digest).
uint64_t Fnv1a64(std::string_view data);

class SnapshotWriter {
 public:
  void U8(uint8_t value) { buf_.push_back(static_cast<char>(value)); }
  void U32(uint32_t value);
  void U64(uint64_t value);
  void I64(int64_t value) { U64(static_cast<uint64_t>(value)); }
  void Bool(bool value) { U8(value ? 1 : 0); }
  void F64(double value) { U64(std::bit_cast<uint64_t>(value)); }
  void Str(std::string_view value);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string Str();

  // Reads an element count for a container whose elements occupy at least
  // `min_elem_bytes` each, and fails unless that many elements can still be
  // present in the remaining bytes — so corrupt counts can never drive a
  // multi-gigabyte reserve() or an unbounded loop.
  uint64_t Count(size_t min_elem_bytes);

  // Marks the reader failed with a semantic (non-bounds) error, e.g. a field
  // value that cannot be valid. First failure wins.
  void Fail(std::string message);

  bool ok() const { return error_.empty(); }
  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  // Ok, or the first failure ("snapshot read failed at byte N: ...").
  Status status() const;

 private:
  // Takes `n` bytes or fails; returns nullptr on failure.
  const char* Take(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;
};

// Writes `content` to `path` atomically: a temp file suffixed with the pid
// (concurrent processes may publish the same path), then rename. Creates
// missing parent directories.
Status WriteFileAtomically(const std::string& path, std::string_view content);

// Appends one line (with trailing newline added) to `path`, creating it if
// needed. Lines are written with a single O_APPEND write, so concurrent
// appenders from different processes never interleave mid-line.
Status AppendLine(const std::string& path, std::string_view line);

// Frames `payload` (see file comment) and writes it atomically. `magic`
// must be exactly 8 bytes; `kind`, when set, is the byte after the version.
Status WriteFramedFile(const std::string& path, std::string_view magic,
                       uint32_t version, std::string_view payload,
                       std::optional<uint8_t> kind = std::nullopt);

struct FramedPayload {
  uint8_t kind = 0;
  std::string payload;
};

// Reads and validates one framed file. `max_kind`, when set, says the frame
// carries a kind byte and bounds it. kNotFound when the file cannot be
// opened, kDataLoss for every corruption mode.
Result<FramedPayload> ReadFramedFile(
    const std::string& path, std::string_view magic, uint32_t version,
    std::optional<uint8_t> max_kind = std::nullopt);

}  // namespace themis

#endif  // SRC_COMMON_SNAPSHOT_IO_H_
