#include "src/fleet/fleet_cli.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/dfs/types.h"
#include "src/fleet/supervisor.h"
#include "src/fleet/worker.h"
#include "src/harness/runner.h"

namespace themis {

namespace {

int FleetUsage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ... fleet run <hdfs|ceph|gluster|leo|geo> --dir=DIR [--workers N]\n"
      "        [--hours H] [--seed S] [--seeds N] [--strategy NAME]\n"
      "        [--threshold T] [--transition-weight W]\n"
      "        [--corpus-dir=DIR] [--checkpoint-every-ops N]\n"
      "        [--import-every N] [--heartbeat-every N]\n"
      "        [--heartbeat-timeout SECS] [--max-restarts N]\n"
      "        [--crash-worker0-after-checkpoints N]\n"
      "  ... fleet worker --dir=DIR --worker=K [--corpus-dir=DIR]\n"
      "        [--import-every=N] [--heartbeat-every=N]\n"
      "        [--halt-after-checkpoints=N]\n"
      "  ... fleet status --dir=DIR\n");
  return 2;
}

// "--name=value" / "--name value" in one helper; advances *i for the
// space-separated form.
bool FlagValue(int argc, char** argv, int* i, const char* name,
               std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(argv[*i], name, len) != 0) {
    return false;
  }
  if (argv[*i][len] == '=') {
    *out = argv[*i] + len + 1;
    return true;
  }
  if (argv[*i][len] == '\0' && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  return false;
}

std::string SelfExecutablePath() {
  char buffer[4096];
  ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
  return "";
}

int RunFleetRun(int argc, char** argv) {
  if (argc < 1) {
    return FleetUsage();
  }
  Flavor flavor;
  if (!ParseFlavor(argv[0], &flavor)) {
    return FleetUsage();
  }
  FleetConfig config;
  config.matrix.flavors = {flavor};
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argc, argv, &i, "--dir", &value)) {
      config.dir = value;
    } else if (FlagValue(argc, argv, &i, "--corpus-dir", &value)) {
      config.corpus_dir = value;
    } else if (FlagValue(argc, argv, &i, "--workers", &value)) {
      config.workers = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--hours", &value)) {
      config.matrix.base.budget = Hours(std::atoi(value.c_str()));
    } else if (FlagValue(argc, argv, &i, "--seed", &value)) {
      config.matrix.matrix_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(argc, argv, &i, "--seeds", &value)) {
      config.matrix.seeds = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--strategy", &value)) {
      config.matrix.strategies = {value};
    } else if (FlagValue(argc, argv, &i, "--threshold", &value)) {
      config.matrix.base.threshold_t = std::atof(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--transition-weight", &value)) {
      config.matrix.base.transition_weight = std::atof(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--checkpoint-every-ops", &value)) {
      config.checkpoint_every_ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(argc, argv, &i, "--import-every", &value)) {
      config.import_every = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--heartbeat-every", &value)) {
      config.heartbeat_every = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--heartbeat-timeout", &value)) {
      config.heartbeat_timeout_s = std::atof(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--max-restarts", &value)) {
      config.max_restarts_per_worker = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--crash-worker0-after-checkpoints",
                         &value)) {
      config.crash_worker0_after_checkpoints = std::atoi(value.c_str());
    } else {
      return FleetUsage();
    }
  }
  if (config.dir.empty()) {
    std::fprintf(stderr, "fleet run requires --dir\n");
    return 2;
  }
  if (config.matrix.seeds < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }
  std::string self = SelfExecutablePath();
  if (self.empty()) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe for worker spawn\n");
    return 1;
  }
  config.worker_command = {self, "fleet", "worker"};

  SetLogLevel(LogLevel::kInfo);
  Result<FleetOutcome> outcome = RunFleetSupervisor(config);
  if (!outcome.ok()) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  const FleetOutcome& o = outcome.value();
  std::printf(
      "fleet: %d/%d jobs done (%d failed), %d worker restarts, "
      "%llu ops, %lld test cases, %d distinct failures, %zu corpus seeds, "
      "%zu fleet transitions, %.2fs wall\n",
      o.jobs_done, o.jobs_total, o.jobs_failed, o.worker_restarts,
      static_cast<unsigned long long>(o.total_ops),
      static_cast<long long>(o.testcases), o.distinct_failures,
      o.corpus_seeds, o.fleet_transitions, o.wall_seconds);
  // Incomplete fleets (a worker out of restarts with jobs still claimed)
  // must not look like success to CI.
  return (o.jobs_done + o.jobs_failed == o.jobs_total && o.workers_failed == 0)
             ? 0
             : 1;
}

int RunFleetWorkerCmd(int argc, char** argv) {
  FleetWorkerOptions options;
  std::string value;
  for (int i = 0; i < argc; ++i) {
    if (FlagValue(argc, argv, &i, "--dir", &value)) {
      options.dir = value;
    } else if (FlagValue(argc, argv, &i, "--corpus-dir", &value)) {
      options.corpus_dir = value;
    } else if (FlagValue(argc, argv, &i, "--worker", &value)) {
      options.worker_id = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--import-every", &value)) {
      options.import_every = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--heartbeat-every", &value)) {
      options.heartbeat_every = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, &i, "--halt-after-checkpoints", &value)) {
      options.halt_after_checkpoints = std::atoi(value.c_str());
    } else {
      return FleetUsage();
    }
  }
  if (options.dir.empty()) {
    std::fprintf(stderr, "fleet worker requires --dir\n");
    return 2;
  }
  Result<FleetWorkerOutcome> outcome = RunFleetWorker(options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "fleet worker %d failed: %s\n", options.worker_id,
                 outcome.status().ToString().c_str());
    return 1;
  }
  // The crash-test hook exits nonzero so the supervisor's waitpid sees a
  // death and exercises the restart path, exactly like a real crash.
  return outcome.value().crashed ? 42 : 0;
}

int RunFleetStatus(int argc, char** argv) {
  std::string dir;
  std::string value;
  for (int i = 0; i < argc; ++i) {
    if (FlagValue(argc, argv, &i, "--dir", &value)) {
      dir = value;
    } else {
      return FleetUsage();
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "fleet status requires --dir\n");
    return 2;
  }
  Result<FleetStatusSnapshot> snapshot = CollectFleetStatus(dir);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "fleet status failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", RenderFleetStatus(snapshot.value()).c_str());
  return 0;
}

}  // namespace

int FleetMain(int argc, char** argv) {
  if (argc < 1) {
    return FleetUsage();
  }
  if (std::strcmp(argv[0], "run") == 0) {
    return RunFleetRun(argc - 1, argv + 1);
  }
  if (std::strcmp(argv[0], "worker") == 0) {
    return RunFleetWorkerCmd(argc - 1, argv + 1);
  }
  if (std::strcmp(argv[0], "status") == 0) {
    return RunFleetStatus(argc - 1, argv + 1);
  }
  return FleetUsage();
}

}  // namespace themis
