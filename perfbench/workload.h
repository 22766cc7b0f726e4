/**
 * @file
 * The benchmark's workloads and the one timed call each of them makes.
 *
 * A workload is a fixed set of training tasks derived from the
 * benchmark seed. A *call* is one invocation of the public entry point
 * the workload exercises — runTrainingThreaded for the solo and crash
 * workloads, SearchService::submitBatch + run for serve-mix — timed
 * from outside with std::chrono::steady_clock. A traced call
 * additionally attaches the program's public observer hooks
 * (RuntimeConfig / ServiceConfig commitObserver and recoveryObserver)
 * and timestamps every commit they report; nothing inside src/ is
 * instrumented.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/pipeline_runtime.h"
#include "supernet/search_space.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One training task: the whole run of a solo workload, or one
 *  tenant of serve-mix. */
struct Task {
    std::string space;       ///< search-space name (Table 1)
    int stages = 1;          ///< stage workers (pool depth for serve)
    int subnets = 1;         ///< unique subnets to train
    int batch = 0;           ///< pinned batch; 0 = capacity planner
    int priority = 1;        ///< serve WRR weight
    std::uint64_t seed = 0;  ///< RuntimeConfig / JobSpec seed
    int ckptInterval = 0;    ///< drained checkpoint cadence (0: off)
    int crashAt = 0;         ///< completion count of a stage-1 crash (0: none)
};

struct Workload {
    std::string name;
    bool serve = false;  ///< SearchService pool instead of solo calls
    int stages = 1;
    std::vector<Task> tasks;  ///< serve: in submission (job-ID) order
    int expectedRecoveries = 0;

    int uniqueSubnets() const;
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for benchmark seed @p seed. Aborts on an
 * unknown name (run.py validates it first).
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** The fault-free simulator configuration whose weights every run
 *  of @p task must reproduce bit for bit. */
naspipe::RuntimeConfig referenceConfig(const Task &task);

/** One commit reported by a commit observer. */
struct CommitEvent {
    double sec = 0.0;  ///< since the call started
    naspipe::SubnetId subnet = -1;
    int task = 0;      ///< index into Workload::tasks
    int stage = 0;
};

/**
 * Thread-safe, allocation-free commit recorder: observers run on the
 * program's worker threads, so record() only claims a slot of a
 * preallocated array. Events beyond the capacity are counted, not
 * stored.
 */
class CommitRecorder
{
  public:
    explicit CommitRecorder(std::size_t capacity);

    CommitRecorder(const CommitRecorder &) = delete;
    CommitRecorder &operator=(const CommitRecorder &) = delete;

    /** Set the time origin; call before the observed threads start. */
    void begin(Clock::time_point epoch) { _epoch = epoch; }

    void record(int task, naspipe::SubnetId subnet, int stage);

    /** Recorded events in time order. */
    std::vector<CommitEvent> sorted() const;
    std::uint64_t dropped() const;

  private:
    Clock::time_point _epoch;
    std::vector<CommitEvent> _events;
    std::atomic<std::size_t> _next{0};
};

/** What one task's run returned. */
struct TaskOutcome {
    naspipe::RunResult result;
    bool failed = false;
    std::string error;
};

/** Wrap a run's result, folding OOM into failure. */
TaskOutcome outcomeOf(naspipe::RunResult result);

/** One timed call of a workload. */
struct CallRecord {
    Clock::time_point start;
    double wallSec = 0.0;
    std::vector<TaskOutcome> tasks;
    /** Per task: seconds from the call's start until the task was
     *  observed Done (solo: the call's wall). */
    std::vector<double> doneSec;
    /** @name Traced calls only
     * @{ */
    std::vector<CommitEvent> commits;
    std::uint64_t droppedCommits = 0;
    std::vector<double> recoverySec;  ///< recoveryObserver calls
    /** @} */
};

/**
 * Make one call of @p workload. @p subnets > 0 overrides every
 * task's size (the one-subnet set-up call); @p traced attaches the
 * observer hooks.
 */
CallRecord runCall(const Workload &workload,
                   const std::vector<naspipe::SearchSpace> &spaces,
                   bool traced, int subnets = 0);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
