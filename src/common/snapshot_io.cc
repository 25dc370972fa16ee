#include "src/common/snapshot_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>

#include "src/common/strings.h"

namespace themis {

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void SnapshotWriter::U32(uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void SnapshotWriter::U64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void SnapshotWriter::Str(std::string_view value) {
  U64(value.size());
  buf_.append(value.data(), value.size());
}

const char* SnapshotReader::Take(size_t n) {
  if (!ok()) return nullptr;
  if (n > data_.size() - pos_) {
    Fail(Sprintf("need %zu bytes, have %zu (truncated snapshot)", n,
                 data_.size() - pos_));
    return nullptr;
  }
  const char* out = data_.data() + pos_;
  pos_ += n;
  return out;
}

uint8_t SnapshotReader::U8() {
  const char* p = Take(1);
  return p == nullptr ? 0 : static_cast<uint8_t>(*p);
}

uint32_t SnapshotReader::U32() {
  const char* p = Take(4);
  if (p == nullptr) return 0;
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

uint64_t SnapshotReader::U64() {
  const char* p = Take(8);
  if (p == nullptr) return 0;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

std::string SnapshotReader::Str() {
  uint64_t len = U64();
  if (ok() && len > data_.size() - pos_) {
    Fail(Sprintf("string length %llu exceeds remaining %zu bytes",
                 static_cast<unsigned long long>(len), data_.size() - pos_));
  }
  const char* p = Take(static_cast<size_t>(len));
  return p == nullptr ? std::string() : std::string(p, len);
}

uint64_t SnapshotReader::Count(size_t min_elem_bytes) {
  uint64_t count = U64();
  if (!ok()) return 0;
  size_t min_bytes = min_elem_bytes == 0 ? 1 : min_elem_bytes;
  if (count > remaining() / min_bytes) {
    Fail(Sprintf("element count %llu cannot fit in remaining %zu bytes",
                 static_cast<unsigned long long>(count), remaining()));
    return 0;
  }
  return count;
}

void SnapshotReader::Fail(std::string message) {
  if (!error_.empty()) return;
  error_ = Sprintf("snapshot read failed at byte %zu: %s", pos_,
                   message.c_str());
}

Status SnapshotReader::status() const {
  if (ok()) return Status::Ok();
  return Status::DataLoss(error_);
}

namespace {

// Writes the concatenation of `parts` through a pid-suffixed temp file and
// a rename.
Status WritePartsAtomically(const std::string& path,
                            std::initializer_list<std::string_view> parts) {
  std::error_code ec;
  std::filesystem::path target(path);
  if (target.has_parent_path()) {
    // An existing directory is fine; a genuine failure surfaces below when
    // the temp file cannot be opened.
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const std::string tmp_path =
      Sprintf("%s.%ld.tmp", path.c_str(), static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal(
          Sprintf("cannot open temp file %s", tmp_path.c_str()));
    }
    for (std::string_view part : parts) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    out.flush();
    if (!out) {
      return Status::Internal(
          Sprintf("short write to temp file %s", tmp_path.c_str()));
    }
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return Status::Internal(Sprintf("cannot rename %s to %s: %s",
                                    tmp_path.c_str(), path.c_str(),
                                    ec.message().c_str()));
  }
  return Status::Ok();
}

}  // namespace

Status WriteFileAtomically(const std::string& path, std::string_view content) {
  return WritePartsAtomically(path, {content});
}

Status AppendLine(const std::string& path, std::string_view line) {
  std::string record(line);
  record.push_back('\n');
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal(Sprintf("cannot open %s for append", path.c_str()));
  }
  ssize_t written = ::write(fd, record.data(), record.size());
  ::close(fd);
  if (written != static_cast<ssize_t>(record.size())) {
    return Status::Internal(Sprintf("short append to %s", path.c_str()));
  }
  return Status::Ok();
}

Status WriteFramedFile(const std::string& path, std::string_view magic,
                       uint32_t version, std::string_view payload,
                       std::optional<uint8_t> kind) {
  if (magic.size() != 8) {
    return Status::InvalidArgument("framed-file magic must be 8 bytes");
  }
  SnapshotWriter header;
  for (char c : magic) header.U8(static_cast<uint8_t>(c));
  header.U32(version);
  if (kind.has_value()) header.U8(*kind);
  header.U64(payload.size());
  header.U64(Fnv1a64(payload));
  return WritePartsAtomically(path, {header.buffer(), payload});
}

Result<FramedPayload> ReadFramedFile(const std::string& path,
                                     std::string_view magic, uint32_t version,
                                     std::optional<uint8_t> max_kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(Sprintf("%s cannot be opened", path.c_str()));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const size_t header_bytes = 8 + 4 + (max_kind.has_value() ? 1 : 0) + 8 + 8;
  if (bytes.size() < header_bytes) {
    return Status::DataLoss(Sprintf("%s truncated: %zu bytes, header needs %zu",
                                    path.c_str(), bytes.size(), header_bytes));
  }
  SnapshotReader header(std::string_view(bytes).substr(0, header_bytes));
  char file_magic[8];
  for (char& c : file_magic) c = static_cast<char>(header.U8());
  if (std::string_view(file_magic, 8) != magic) {
    return Status::DataLoss(Sprintf("%s has bad magic (expected %.*s)",
                                    path.c_str(), 8, magic.data()));
  }
  uint32_t file_version = header.U32();
  if (file_version != version) {
    return Status::DataLoss(
        Sprintf("%s has unsupported format version %u (this build reads %u)",
                path.c_str(), file_version, version));
  }
  FramedPayload framed;
  if (max_kind.has_value()) {
    framed.kind = header.U8();
    if (framed.kind > *max_kind) {
      return Status::DataLoss(
          Sprintf("%s has unknown kind %u", path.c_str(), framed.kind));
    }
  }
  uint64_t payload_size = header.U64();
  uint64_t checksum = header.U64();
  if (bytes.size() - header_bytes != payload_size) {
    return Status::DataLoss(
        Sprintf("%s payload size mismatch: header says %llu bytes, file has %zu",
                path.c_str(), static_cast<unsigned long long>(payload_size),
                bytes.size() - header_bytes));
  }
  std::string_view payload = std::string_view(bytes).substr(header_bytes);
  uint64_t actual = Fnv1a64(payload);
  if (actual != checksum) {
    return Status::DataLoss(Sprintf(
        "%s checksum mismatch: header %016llx, payload %016llx (corrupt)",
        path.c_str(), static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(actual)));
  }
  bytes.erase(0, header_bytes);
  framed.payload = std::move(bytes);
  return framed;
}

}  // namespace themis
