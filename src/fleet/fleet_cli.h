// The `fleet` subcommand family (DESIGN.md §17) of themis_cli:
//
//   fleet run <hdfs|ceph|gluster|leo|geo> --dir=DIR [options]
//       stage the matrix into DIR and supervise N worker processes
//   fleet worker --dir=DIR --worker=K [options]
//       one worker process (normally spawned by `fleet run`, not by hand)
//   fleet status --dir=DIR
//       point-in-time snapshot: queue counts, corpus size, worker heartbeats
//
// FleetMain receives argv positioned AFTER the `fleet` token. The supervisor
// respawns workers as `<self_exe> fleet worker ...`, resolving self_exe from
// /proc/self/exe so it works regardless of how the parent was invoked.

#ifndef SRC_FLEET_FLEET_CLI_H_
#define SRC_FLEET_FLEET_CLI_H_

namespace themis {

int FleetMain(int argc, char** argv);

}  // namespace themis

#endif  // SRC_FLEET_FLEET_CLI_H_
