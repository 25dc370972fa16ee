#include "src/fleet/corpus.h"

#include <algorithm>
#include <filesystem>

#include "src/common/snapshot_io.h"
#include "src/common/strings.h"

namespace themis {

std::string SeedFileName(uint64_t fingerprint) {
  return Sprintf("seed-%016llx.seed",
                 static_cast<unsigned long long>(fingerprint));
}

bool ParseSeedFileName(std::string_view name, uint64_t* fingerprint) {
  constexpr std::string_view prefix = "seed-";
  constexpr std::string_view suffix = ".seed";
  if (name.size() != prefix.size() + 16 + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  uint64_t value = 0;
  for (char c : name.substr(prefix.size(), 16)) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *fingerprint = value;
  return true;
}

Status PublishSeed(const std::string& dir, const CorpusSeed& seed) {
  if (seed.seq.empty()) {
    return Status::InvalidArgument("refusing to publish an empty sequence");
  }
  if (seed.fingerprint != OpSeqFingerprint(seed.seq)) {
    return Status::InvalidArgument(
        "seed fingerprint does not match its sequence");
  }
  const std::string path =
      (std::filesystem::path(dir) / SeedFileName(seed.fingerprint)).string();
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    return Status::Ok();  // another worker already published this sequence
  }
  SnapshotWriter payload;
  payload.U64(seed.fingerprint);
  payload.U8(static_cast<uint8_t>(seed.flavor));
  payload.F64(seed.score);
  payload.U64(seed.transitions);
  payload.U64(seed.origin_job);
  SaveOpSeq(payload, seed.seq);
  return WriteFramedFile(path, kCorpusSeedMagic, kCorpusSeedFormatVersion,
                         payload.buffer());
}

Result<CorpusSeed> ReadSeedFile(const std::string& path) {
  Result<FramedPayload> framed =
      ReadFramedFile(path, kCorpusSeedMagic, kCorpusSeedFormatVersion);
  if (!framed.ok()) {
    return framed.status();
  }
  SnapshotReader reader(framed->payload);
  CorpusSeed seed;
  seed.fingerprint = reader.U64();
  uint8_t flavor = reader.U8();
  seed.score = reader.F64();
  seed.transitions = reader.U64();
  seed.origin_job = reader.U64();
  RestoreOpSeq(reader, &seed.seq);
  if (reader.ok() && !reader.AtEnd()) {
    reader.Fail("trailing bytes after seed record");
  }
  if (!reader.ok()) {
    return Status::DataLoss(
        Sprintf("%s: %s", path.c_str(), reader.status().ToString().c_str()));
  }
  if (flavor > static_cast<uint8_t>(Flavor::kGeo)) {
    return Status::DataLoss(
        Sprintf("%s: unknown flavor %u", path.c_str(), flavor));
  }
  seed.flavor = static_cast<Flavor>(flavor);
  if (seed.seq.empty()) {
    return Status::DataLoss(Sprintf("%s: empty sequence", path.c_str()));
  }
  if (seed.fingerprint != OpSeqFingerprint(seed.seq)) {
    return Status::DataLoss(Sprintf(
        "%s: embedded fingerprint does not match the sequence", path.c_str()));
  }
  uint64_t name_fingerprint = 0;
  std::string name = std::filesystem::path(path).filename().string();
  if (ParseSeedFileName(name, &name_fingerprint) &&
      name_fingerprint != seed.fingerprint) {
    return Status::DataLoss(Sprintf(
        "%s: file name disagrees with embedded fingerprint", path.c_str()));
  }
  return seed;
}

std::vector<std::string> ListSeedFileNames(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return names;
  }
  for (const auto& entry : it) {
    uint64_t fingerprint = 0;
    std::string name = entry.path().filename().string();
    if (ParseSeedFileName(name, &fingerprint)) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace themis
