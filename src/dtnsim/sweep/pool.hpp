// The repo's one way to run independent simulations on several cores:
// parallel_for(n, jobs, task), a fork-join over one process-wide pool,
// started on first use with one helper thread per usable CPU but one. The
// calling thread drains indices too, and at most resolve_jobs(jobs) threads
// take part in one call. harness::run_test fans its repeats out through it,
// run_tests its specs, and sweep::run_campaign its cells.
//
// Design rules that keep parallel output byte-identical to serial:
//   - tasks are *independent* simulations: each owns its Rng, its engine and
//     its telemetry; nothing is shared between them but the index counter.
//   - callers write results back by index into pre-sized storage, so output
//     order never depends on completion order.
//   - only the outermost call that fans out does so. A parallel_for issued
//     from a task of a parallel_for that fanned out runs inline, so nested
//     batches (run_tests specs or campaign cells -> run_test repeats) never
//     oversubscribe the cores or wait on a pool they are running on. A call
//     that runs inline (jobs 1, one index) occupies no other core, so one
//     nested in it may still fan out: run_tests(specs, 1) runs its specs one
//     by one, each with its repeats spread over the pool.
//   - a failing task never stops the others; once every started task has
//     ended, parallel_for rethrows the failure with the lowest index, the one
//     a serial loop would have met first.
//
// This component is deliberately generic (std::function tasks, no harness
// types) so it can sit *below* harness in the module layering.
#pragma once

#include <cstddef>
#include <functional>

namespace dtnsim::sweep {

// Resolve a --jobs value: 0 means one per CPU this process may run on (its
// affinity mask on Linux, so `taskset` caps it), anything else clamps to at
// least 1.
int resolve_jobs(int jobs);

// Run task(i) for every i in [0, n) and block until all have ended: the
// canonical "write results by index" loop. `jobs` is resolved via
// resolve_jobs(); jobs 1, n <= 1, a call nested in a fanned-out batch, or a
// process with one usable CPU runs every task inline on the calling thread.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& task);

}  // namespace dtnsim::sweep
