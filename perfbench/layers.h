/**
 * @file
 * The traced run's per-layer measurements.
 *
 * Every number here is taken from outside the program: from the
 * commit/recovery timestamps a traced call recorded through the
 * public observer hooks, from the RunResult the call returned, or
 * from timing direct calls into public functions — a single-threaded
 * replay of the run's own subnets through NumericExecutor
 * forwardStage/backwardStage/evaluate, ParameterStore / RunCheckpoint
 * save/load/supernetHash, kernels::treeDot and
 * obs::buildLogicalSchedule. Spans around those calls are kept in
 * memory and written out once, at the end.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/** In-memory span log, written once as JSON lines. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : _epoch(epoch) {}

    /** Add a finished span; times are seconds since the epoch.
     *  Returns its id (parent -1 = root). */
    int add(const std::string &run, int parent, const std::string &name,
            double startSec, double endSec);

    /** Set the end of span @p id, added open (end == start). */
    void close(int id, double endSec);

    /** Seconds since the epoch. */
    double now() const { return secondsBetween(_epoch, Clock::now()); }
    double offsetOf(Clock::time_point t) const
    {
        return secondsBetween(_epoch, t);
    }

    bool write(const std::string &path) const;

  private:
    struct Span {
        std::string run;
        int id;
        int parent;
        std::string name;
        double startSec;
        double endSec;
    };
    Clock::time_point _epoch;
    std::vector<Span> _spans;
};

/** Single-threaded replay of every task of one call. */
struct Replay {
    std::vector<double> fwdUs;   ///< per forwardStage call
    std::vector<double> bwdUs;   ///< per backwardStage call
    std::vector<double> evalUs;  ///< per evaluate call
    /** Forward+backward compute per pool stage, summed over tasks. */
    std::vector<double> stageSec;
    /** Per task, per subnet ID: forward+backward compute. */
    std::vector<std::vector<double>> subnetSec;
    std::vector<std::uint64_t> hashes;      ///< per task, final store
    std::vector<naspipe::SubnetId> best;    ///< per task, eval argmin
    double ckptSaveMs = 0.0;
    double ckptLoadMs = 0.0;
    double ckptBytes = 0.0;
    double hashMs = 0.0;
    bool ckptRoundTrip = true;  ///< loaded store hashes identically
};

Replay replayCall(const Workload &w,
                  const std::vector<naspipe::SearchSpace> &spaces,
                  const CallRecord &call, SpanLog &spans,
                  const std::string &run);

/** Median ns of one kernels::treeDot call at n = kLayerDim. */
double treeDotNs(std::uint64_t seed, SpanLog &spans,
                 const std::string &run);

/** Per task: obs::buildLogicalSchedule over the call's schedule. */
struct Logical {
    std::vector<std::int64_t> makespan;
    std::vector<double> efficiency;  ///< max stage busy / makespan
};

Logical logicalSchedules(const Workload &w,
                         const std::vector<naspipe::SearchSpace> &spaces,
                         const CallRecord &call, SpanLog *spans,
                         const std::string &run);

/**
 * The per-layer metrics of one traced call. @p notes collects every
 * metric that could not be measured on this workload and why, and
 * every internal inconsistency (prefixed "error:").
 */
std::map<std::string, double>
analyzeCall(const Workload &w, const CallRecord &call,
            const Replay &replay, SpanLog &spans, const std::string &run,
            std::vector<std::string> &notes);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
