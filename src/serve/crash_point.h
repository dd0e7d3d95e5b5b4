// Deterministic kill points for the serve chaos harness.
//
// The service calls ServeCrashPoint("tag") at every state transition whose
// interruption the journal must survive. One ingest passes, in order:
// journal-recorded; snapshot-serialized (trace drops only) and
// pre-snapshot-publish, both between the complete staged snapshot
// (state/snapshots/.tmp.NAME.lockdb) and its publishing rename;
// snapshot-published; ingest-acked; source-removed; journal-cleared. One
// answered request passes response-out-written, response-meta-written and
// request-removed. In production the calls are no-ops. The chaos harness
// arms them via the environment:
//
//   LOCKDOC_SERVE_CRASH_AT=<n>   _exit(42) on the n-th crash-point hit
//                                (1-based, counted across the process)
//
// Seeded from the harness's scenario seed, this turns "kill -9 at a random
// moment" into a reproducible schedule covering every interleaving.
#ifndef SRC_SERVE_CRASH_POINT_H_
#define SRC_SERVE_CRASH_POINT_H_

namespace lockdoc {

// The exit code of an armed crash, distinguishable from every real exit.
inline constexpr int kServeCrashExitCode = 42;

// Dies with _exit(kServeCrashExitCode) when this is the armed hit; returns
// otherwise. `tag` names the transition in the pre-death stderr line.
void ServeCrashPoint(const char* tag);

}  // namespace lockdoc

#endif  // SRC_SERVE_CRASH_POINT_H_
