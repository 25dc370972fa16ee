#include "src/fleet/heartbeat.h"

#include <cstdlib>
#include <fstream>

#include "src/common/snapshot_io.h"
#include "src/common/strings.h"

namespace themis {

namespace {

// Extracts `"key":<number>` from a single-level JSON object line. The
// heartbeat schema is flat and written by RenderHeartbeatJson below, so a
// scanner beats dragging in a JSON library.
bool FindNumber(std::string_view line, std::string_view key, long long* out) {
  std::string needle = Sprintf("\"%.*s\":", static_cast<int>(key.size()),
                               key.data());
  size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  at += needle.size();
  if (at >= line.size()) return false;
  char* end = nullptr;
  std::string tail(line.substr(at, 24));
  long long value = std::strtoll(tail.c_str(), &end, 10);
  if (end == tail.c_str()) return false;
  *out = value;
  return true;
}

bool FindString(std::string_view line, std::string_view key,
                std::string* out) {
  std::string needle = Sprintf("\"%.*s\":\"", static_cast<int>(key.size()),
                               key.data());
  size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  at += needle.size();
  size_t end = line.find('"', at);
  if (end == std::string_view::npos) return false;
  *out = std::string(line.substr(at, end - at));
  return true;
}

}  // namespace

std::string HeartbeatFileName(int worker_id) {
  return Sprintf("worker-%d.hb.jsonl", worker_id);
}

std::string RenderHeartbeatJson(const Heartbeat& hb) {
  return Sprintf(
      "{\"worker\":%d,\"pid\":%ld,\"seq\":%llu,\"job\":%llu,"
      "\"ops\":%llu,\"testcases\":%lld,\"coverage\":%llu,"
      "\"transitions\":%llu,\"published\":%llu,\"imported\":%llu,"
      "\"phase\":\"%s\"}",
      hb.worker_id, hb.pid, static_cast<unsigned long long>(hb.seq),
      static_cast<unsigned long long>(hb.job_index),
      static_cast<unsigned long long>(hb.total_ops),
      static_cast<long long>(hb.testcases),
      static_cast<unsigned long long>(hb.coverage),
      static_cast<unsigned long long>(hb.transitions),
      static_cast<unsigned long long>(hb.published),
      static_cast<unsigned long long>(hb.imported), hb.phase.c_str());
}

Status AppendHeartbeat(const std::string& path, const Heartbeat& hb) {
  return AppendLine(path, RenderHeartbeatJson(hb));
}

bool ParseHeartbeatJson(std::string_view line, Heartbeat* hb) {
  long long value = 0;
  if (!FindNumber(line, "worker", &value)) return false;
  hb->worker_id = static_cast<int>(value);
  if (!FindNumber(line, "pid", &value)) return false;
  hb->pid = static_cast<long>(value);
  if (!FindNumber(line, "seq", &value)) return false;
  hb->seq = static_cast<uint64_t>(value);
  if (!FindNumber(line, "job", &value)) return false;
  hb->job_index = static_cast<uint64_t>(value);
  if (!FindNumber(line, "ops", &value)) return false;
  hb->total_ops = static_cast<uint64_t>(value);
  if (!FindNumber(line, "testcases", &value)) return false;
  hb->testcases = value;
  if (!FindNumber(line, "coverage", &value)) return false;
  hb->coverage = static_cast<uint64_t>(value);
  if (!FindNumber(line, "transitions", &value)) return false;
  hb->transitions = static_cast<uint64_t>(value);
  if (!FindNumber(line, "published", &value)) return false;
  hb->published = static_cast<uint64_t>(value);
  if (!FindNumber(line, "imported", &value)) return false;
  hb->imported = static_cast<uint64_t>(value);
  if (!FindString(line, "phase", &hb->phase)) return false;
  return true;
}

Result<Heartbeat> ReadLastHeartbeat(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(Sprintf("no heartbeat file %s", path.c_str()));
  }
  Heartbeat last;
  bool found = false;
  std::string line;
  while (std::getline(in, line)) {
    Heartbeat hb;
    if (ParseHeartbeatJson(line, &hb)) {
      last = hb;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound(
        Sprintf("no parsable heartbeat in %s", path.c_str()));
  }
  return last;
}

}  // namespace themis
