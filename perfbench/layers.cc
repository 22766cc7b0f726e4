#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "common/rng.h"
#include "obs/histogram.h"
#include "obs/logical_schedule.h"
#include "tensor/kernels/reduce.h"
#include "tensor/layer_math.h"
#include "train/numeric_executor.h"
#include "train/param_store.h"
#include "train/run_checkpoint.h"

namespace perfbench {

using naspipe::SearchSpace;
using naspipe::SubnetId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kCkptReps = 5;
constexpr int kTreeDotBatches = 15;
constexpr int kTreeDotCalls = 50000;

/**
 * Quantile @p q of a decade-bucketed histogram, interpolated
 * log-linearly inside the bucket that holds it (linearly in the
 * first bucket, which starts at 0). The overflow bucket ends at the
 * recorded maximum.
 */
double
histogramQuantile(const naspipe::obs::FixedHistogram &h, double q)
{
    std::uint64_t total = h.total();
    if (total == 0)
        return 0.0;
    const std::vector<double> &bounds = h.bounds();
    const std::vector<std::uint64_t> &counts = h.counts();
    double rank = q * static_cast<double>(total);
    double below = 0.0;
    for (std::size_t i = 0; i < counts.size(); i++) {
        double n = static_cast<double>(counts[i]);
        if (n == 0.0 || below + n < rank) {
            below += n;
            continue;
        }
        double lo = i == 0 ? 0.0 : bounds[i - 1];
        double hi = i < bounds.size() ? bounds[i] : h.max();
        hi = std::min(hi, h.max());
        double f = std::clamp((rank - below) / n, 0.0, 1.0);
        if (lo <= 0.0 || hi <= lo)
            return lo + (hi - lo) * f;
        return lo * std::pow(hi / lo, f);
    }
    return h.max();
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int
SpanLog::add(const std::string &run, int parent, const std::string &name,
             double startSec, double endSec)
{
    int id = static_cast<int>(_spans.size());
    _spans.push_back(Span{run, id, parent, name, startSec, endSec});
    return id;
}

void
SpanLog::close(int id, double endSec)
{
    _spans[static_cast<std::size_t>(id)].endSec = endSec;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &s : _spans) {
        char times[96];
        std::snprintf(times, sizeof times,
                      "\"start_us\": %.3f, \"end_us\": %.3f",
                      s.startSec * 1e6, s.endSec * 1e6);
        out << "{\"run\": \"" << s.run << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"name\": \""
            << s.name << "\", " << times << "}\n";
    }
    return static_cast<bool>(out);
}

Replay
replayCall(const Workload &w, const std::vector<SearchSpace> &spaces,
           const CallRecord &call, SpanLog &spans,
           const std::string &run)
{
    using naspipe::UpdateSemantics;
    Replay r;
    r.stageSec.assign(static_cast<std::size_t>(w.stages), 0.0);
    for (std::size_t i = 0; i < w.tasks.size(); i++) {
        const Task &task = w.tasks[i];
        const SearchSpace &space = spaces[i];
        const naspipe::RunResult &res = call.tasks[i].result;
        const int stages = task.stages;

        // The session's own construction (TrainingSession::initRun):
        // the same store seed, data seed and batch give the same
        // trajectory, and CSP promises that trajectory equals this
        // strictly sequential one.
        naspipe::ParameterStore store(space, task.seed);
        naspipe::NumericExecutor::Config ec;
        ec.dataSeed = naspipe::deriveSeed(task.seed, "data");
        ec.batch = res.metrics.batch;
        naspipe::NumericExecutor exec(store, ec);

        double replayStart = spans.now();
        int root = spans.add(run, -1, "replay " + task.space,
                             replayStart, replayStart);
        std::vector<double> &perSubnet = r.subnetSec.emplace_back(
            res.sampled.size(), 0.0);
        std::vector<double> losses;
        for (std::size_t k = 0; k < res.sampled.size(); k++) {
            const naspipe::Subnet &sn = res.sampled[k];
            const naspipe::SubnetPartition &part = res.partitions[k];
            exec.beginSubnet(sn);
            for (int s = 0; s < stages; s++) {
                int lo = part.firstBlock(s), hi = part.lastBlock(s);
                double t0 = spans.now();
                if (lo <= hi)
                    exec.forwardStage(sn, lo, hi,
                                      UpdateSemantics::Immediate, s);
                if (s == stages - 1)
                    exec.computeLoss(sn);
                double t1 = spans.now();
                if (lo <= hi)
                    r.fwdUs.push_back((t1 - t0) * 1e6);
                perSubnet[k] += t1 - t0;
                r.stageSec[static_cast<std::size_t>(s)] += t1 - t0;
                spans.add(run, root, "forwardStage s" + std::to_string(s),
                          t0, t1);
            }
            for (int s = stages - 1; s >= 0; s--) {
                int lo = part.firstBlock(s), hi = part.lastBlock(s);
                double t0 = spans.now();
                if (lo <= hi)
                    exec.backwardStage(sn, lo, hi,
                                       UpdateSemantics::Immediate, s);
                double t1 = spans.now();
                if (lo <= hi)
                    r.bwdUs.push_back((t1 - t0) * 1e6);
                perSubnet[k] += t1 - t0;
                r.stageSec[static_cast<std::size_t>(s)] += t1 - t0;
                spans.add(run, root,
                          "backwardStage s" + std::to_string(s), t0, t1);
            }
            losses.push_back(exec.finishSubnet(sn));
        }
        r.hashes.push_back(store.supernetHash());

        // The post-training search, one evaluate call at a time, with
        // searchBestSubnet's seed and tie-break (lower ID wins).
        std::uint64_t evalSeed =
            naspipe::deriveSeed(task.seed, "search");
        SubnetId best = -1;
        float bestLoss = 0.0f;
        for (const naspipe::Subnet &sn : res.sampled) {
            double t0 = spans.now();
            float loss = exec.evaluate(sn, evalSeed);
            double t1 = spans.now();
            r.evalUs.push_back((t1 - t0) * 1e6);
            spans.add(run, root, "evaluate", t0, t1);
            if (best < 0 || loss < bestLoss) {
                best = sn.id();
                bestLoss = loss;
            }
        }
        r.best.push_back(best);

        if (i == 0) {
            // Checkpoint serialization of the trained store, the way
            // TrainingSession::buildCheckpoint/commitCheckpoint and
            // restore() do it. The end-of-run access log is the
            // largest any of the run's checkpoints carried.
            std::vector<double> saveMs, loadMs, hashMs;
            std::uint64_t hash = r.hashes.back();
            for (int rep = 0; rep < kCkptReps; rep++) {
                double t0 = spans.now();
                naspipe::RunCheckpoint ckpt;
                ckpt.seed = task.seed;
                ckpt.spaceBlocks =
                    static_cast<std::uint32_t>(space.numBlocks());
                ckpt.spaceChoices =
                    static_cast<std::uint32_t>(space.choicesPerBlock());
                ckpt.totalSubnets =
                    static_cast<std::uint64_t>(res.sampled.size());
                ckpt.completed = ckpt.totalSubnets;
                ckpt.losses = losses;
                ckpt.completionSec.assign(losses.size(), 0.0);
                std::ostringstream ss(std::ios::binary);
                store.save(ss);
                ckpt.storeBytes = ss.str();
                std::ostringstream ls(std::ios::binary);
                store.accessLog().saveTo(ls);
                ckpt.accessLogBytes = ls.str();
                std::ostringstream os(std::ios::binary);
                ckpt.save(os);
                std::string bytes = os.str();
                double t1 = spans.now();
                spans.add(run, root, "RunCheckpoint save", t0, t1);

                naspipe::RunCheckpoint back;
                naspipe::ParameterStore loaded(space, task.seed);
                std::istringstream in(bytes);
                bool ok = back.load(in);
                std::istringstream sin(back.storeBytes);
                ok = ok && loaded.load(sin);
                std::istringstream lin(back.accessLogBytes);
                ok = ok && loaded.accessLog().loadFrom(lin);
                double t2 = spans.now();
                spans.add(run, root, "RunCheckpoint load", t1, t2);

                std::uint64_t again = store.supernetHash();
                double t3 = spans.now();
                spans.add(run, root, "supernetHash", t2, t3);

                if (rep == 0) {
                    r.ckptRoundTrip = ok && again == hash &&
                                      loaded.supernetHash() == hash;
                    r.ckptBytes = static_cast<double>(bytes.size());
                }
                saveMs.push_back((t1 - t0) * 1e3);
                loadMs.push_back((t2 - t1) * 1e3);
                hashMs.push_back((t3 - t2) * 1e3);
            }
            r.ckptSaveMs = median(saveMs);
            r.ckptLoadMs = median(loadMs);
            r.hashMs = median(hashMs);
        }
        spans.close(root, spans.now());
    }
    return r;
}

double
treeDotNs(std::uint64_t seed, SpanLog &spans, const std::string &run)
{
    constexpr std::size_t n = naspipe::kLayerDim;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; i++) {
        a[i] = dist(rng);
        b[i] = dist(rng);
    }
    std::vector<double> ns;
    float acc = 0.0f;
    for (int batch = 0; batch < kTreeDotBatches; batch++) {
        double t0 = spans.now();
        for (int i = 0; i < kTreeDotCalls; i++) {
            acc += naspipe::kernels::treeDot(a.data(), b.data(), n);
            // Feed the result back so no two calls see equal inputs.
            a[static_cast<std::size_t>(i) % n] += acc * 1e-30f;
        }
        double t1 = spans.now();
        spans.add(run, -1, "treeDot x" + std::to_string(kTreeDotCalls),
                  t0, t1);
        ns.push_back((t1 - t0) * 1e9 / kTreeDotCalls);
    }
    if (!std::isfinite(acc))
        std::fprintf(stderr, "perfbench: treeDot diverged\n");
    return median(ns);
}

Logical
logicalSchedules(const Workload &w, const std::vector<SearchSpace> &spaces,
                 const CallRecord &call, SpanLog *spans,
                 const std::string &run)
{
    Logical out;
    for (std::size_t i = 0; i < w.tasks.size(); i++) {
        const Task &task = w.tasks[i];
        const naspipe::RunResult &res = call.tasks[i].result;
        Clock::time_point t0 = Clock::now();
        naspipe::obs::LogicalSchedule sched =
            naspipe::obs::buildLogicalSchedule(
                spaces[i], res.sampled, res.partitions, task.stages,
                res.metrics.batch,
                naspipe::naspipeSystem().effectiveInflight(task.stages));
        if (spans) {
            spans->add(run, -1, "buildLogicalSchedule " + task.space,
                       spans->offsetOf(t0), spans->now());
        }
        naspipe::Tick busiest = 0;
        for (naspipe::Tick t : sched.stageBusyTicks)
            busiest = std::max(busiest, t);
        out.makespan.push_back(static_cast<std::int64_t>(sched.makespan));
        out.efficiency.push_back(
            sched.makespan > 0 ? static_cast<double>(busiest) /
                                     static_cast<double>(sched.makespan)
                               : 0.0);
    }
    return out;
}

std::map<std::string, double>
analyzeCall(const Workload &w, const CallRecord &call,
            const Replay &replay, SpanLog &spans, const std::string &run,
            std::vector<std::string> &notes)
{
    std::map<std::string, double> m;
    const std::vector<CommitEvent> &ev = call.commits;
    const double off = spans.offsetOf(call.start);
    const double wall = call.wallSec;
    int root = spans.add(run, -1, "call " + w.name, off, off + wall);
    if (ev.empty()) {
        notes.push_back("error: traced call observed no commits");
        return m;
    }
    if (call.droppedCommits > 0) {
        notes.push_back("error: commit recorder overflowed by " +
                        std::to_string(call.droppedCommits));
    }
    const double cFirst = ev.front().sec, cLast = ev.back().sec;

    // session: the call is set-up + first fill, training, then
    // post-training work (hash, access-log audit, search, collect).
    spans.add(run, root, "until first commit", off, off + cFirst);
    int train = spans.add(run, root, "train", off + cFirst, off + cLast);
    spans.add(run, root, "post", off + cLast, off + wall);
    m["session.train_s"] = cLast - cFirst;
    m["session.post_s"] = wall - cLast;

    // Recovery phases: phase p starts at the p-th recoveryObserver.
    std::vector<double> phaseStart = {0.0};
    phaseStart.insert(phaseStart.end(), call.recoverySec.begin(),
                      call.recoverySec.end());
    auto phaseOf = [&](double sec) {
        return static_cast<std::size_t>(
            std::upper_bound(phaseStart.begin(), phaseStart.end(), sec) -
            phaseStart.begin() - 1);
    };
    const std::size_t phases = phaseStart.size();

    // exec: per-stage accounting of the last phase (recovery rebuilds
    // the workers, so RunMetrics covers only the final phase). When
    // the subnet count is a multiple of the checkpoint interval, the
    // session takes one more drained checkpoint after the last
    // completion while the workers still run; the replay's save of
    // the end-of-run store stands in for it.
    double window = cLast - phaseStart.back();
    if (!w.serve) {
        const Task &task = w.tasks.front();
        if (task.ckptInterval > 0 && task.subnets % task.ckptInterval == 0)
            window += replay.ckptSaveMs * 1e-3;
        const naspipe::RunMetrics &rm = call.tasks[0].result.metrics;
        const double stages =
            static_cast<double>(rm.perStageBusySec.size());
        double maxBusy = 0.0;
        for (double b : rm.perStageBusySec)
            maxBusy = std::max(maxBusy, b);
        m["exec.busy_share"] = sum(rm.perStageBusySec) / (stages * window);
        m["exec.gate_wait_share"] =
            sum(rm.perStageGateWaitSec) / (stages * window);
        m["exec.idle_share"] = sum(rm.perStageIdleSec) / (stages * window);
        // Worker time none of the three counters covers (loop, inbox
        // and context-cache work), or, when negative, worker time past
        // the last commit (an end-of-run checkpoint barrier).
        m["exec.unattributed_share"] =
            1.0 - m["exec.busy_share"] - m["exec.gate_wait_share"] -
            m["exec.idle_share"];
        m["exec.overhead_s"] = window - maxBusy;
        double deferrals = 0.0;
        for (std::uint64_t d : rm.perStageDeferrals)
            deferrals += static_cast<double>(d);
        m["exec.deferrals"] = deferrals;
        naspipe::obs::FixedHistogram waits(
            naspipe::obs::latencySecondsBounds());
        for (const naspipe::obs::StageObservation &s :
             call.tasks[0].result.observations.stages)
            waits.merge(s.gateWaitSeconds);
        m["exec.gate_wait_p50_us"] = histogramQuantile(waits, 0.50) * 1e6;
        m["exec.gate_wait_p99_us"] = histogramQuantile(waits, 0.99) * 1e6;
        m["exec.gate_wait_samples"] = static_cast<double>(waits.total());
    } else {
        for (const char *name :
             {"exec.busy_share", "exec.gate_wait_share", "exec.idle_share",
              "exec.unattributed_share", "exec.overhead_s", "exec.deferrals", "exec.gate_wait_p50_us",
              "exec.gate_wait_p99_us", "exec.gate_wait_samples"}) {
            m[name] = 0.0;
            notes.push_back(std::string(name) +
                            ": not measured on serve-mix (SearchService "
                            "keeps its pool's per-stage worker "
                            "accounting private)");
        }
    }
    double maxStage = 0.0;
    for (double s : replay.stageSec)
        maxStage = std::max(maxStage, s);
    m["exec.efficiency"] = maxStage / (cLast - cFirst);

    // session: checkpoint barriers, seen as commit-stream gaps. No
    // subnet >= B starts before every subnet < B completed, so within
    // one phase the gap between the last commit below B and the first
    // at or above it is the barrier's stall.
    double ckptCount = 0.0, ckptStall = 0.0;
    for (std::size_t t = 0; t < w.tasks.size(); t++) {
        const int stride = w.tasks[t].ckptInterval;
        const int n = w.tasks[t].subnets;
        if (stride <= 0)
            continue;
        for (std::size_t p = 0; p < phases; p++) {
            std::vector<double> first(static_cast<std::size_t>(n), kInf);
            std::vector<double> last(static_cast<std::size_t>(n), -kInf);
            for (const CommitEvent &e : ev) {
                if (e.task != static_cast<int>(t) || phaseOf(e.sec) != p ||
                    e.subnet < 0 || e.subnet >= n)
                    continue;
                auto k = static_cast<std::size_t>(e.subnet);
                first[k] = std::min(first[k], e.sec);
                last[k] = std::max(last[k], e.sec);
            }
            for (std::size_t k = 1; k < last.size(); k++)
                last[k] = std::max(last[k], last[k - 1]);
            for (std::size_t k = first.size() - 1; k-- > 0;)
                first[k] = std::min(first[k], first[k + 1]);
            for (int b = stride; b < n; b += stride) {
                double below = last[static_cast<std::size_t>(b) - 1];
                double above = first[static_cast<std::size_t>(b)];
                if (below == -kInf || above == kInf || above <= below)
                    continue;
                ckptCount += 1.0;
                ckptStall += above - below;
                spans.add(run, train, "checkpoint barrier " +
                                          std::to_string(b),
                          off + below, off + above);
            }
        }
    }
    m["session.ckpt_count"] = ckptCount;
    m["session.ckpt_stall_s"] = ckptStall;

    // fault: counts from the result, times from the observers.
    double recoveries = 0.0, replayed = 0.0;
    for (const TaskOutcome &t : call.tasks) {
        recoveries += t.result.metrics.recoveries;
        replayed += t.result.metrics.subnetsReplayed;
    }
    if (recoveries != static_cast<double>(call.recoverySec.size())) {
        notes.push_back("error: RunMetrics reports " +
                        std::to_string(static_cast<int>(recoveries)) +
                        " recoveries, recoveryObserver saw " +
                        std::to_string(call.recoverySec.size()));
    }
    m["fault.recoveries"] = recoveries;
    m["fault.replayed"] = replayed;
    double quiesce = 0.0, restart = 0.0;
    for (double r : call.recoverySec) {
        auto after = std::upper_bound(
            ev.begin(), ev.end(), r,
            [](double t, const CommitEvent &e) { return t < e.sec; });
        double before = after == ev.begin() ? 0.0 : (after - 1)->sec;
        double next = after == ev.end() ? wall : after->sec;
        quiesce += r - before;
        restart += next - r;
        spans.add(run, train, "quiesce", off + before, off + r);
        spans.add(run, train, "restart", off + r, off + next);
    }
    m["fault.quiesce_s"] = quiesce;
    m["fault.restart_s"] = restart;
    // Compute a recovery threw away: every subnet that committed in a
    // phase and again in a later one was trained twice; charge its
    // single-threaded replay compute once per extra phase.
    double lost = 0.0;
    if (phases > 1) {
        for (std::size_t t = 0; t < w.tasks.size(); t++) {
            std::map<SubnetId, std::uint64_t> seenIn;
            for (const CommitEvent &e : ev) {
                if (e.task == static_cast<int>(t))
                    seenIn[e.subnet] |= 1ULL << std::min<std::size_t>(
                                            phaseOf(e.sec), 63);
            }
            for (const auto &[subnet, mask] : seenIn) {
                int extra = __builtin_popcountll(mask) - 1;
                if (extra > 0 && subnet >= 0 &&
                    static_cast<std::size_t>(subnet) <
                        replay.subnetSec[t].size())
                    lost += extra * replay.subnetSec[t]
                                        [static_cast<std::size_t>(subnet)];
            }
        }
    }
    m["fault.lost_busy_s"] = lost;

    // serve: the highest-priority tenant's share of commits until it
    // finished, and the commit-stream stall while each finishing
    // tenant's collect held the coordinator.
    if (w.serve) {
        std::size_t hi = 0;
        for (std::size_t t = 1; t < w.tasks.size(); t++) {
            if (w.tasks[t].priority > w.tasks[hi].priority)
                hi = t;
        }
        std::vector<double> firstOf(w.tasks.size(), kInf);
        std::vector<double> lastOf(w.tasks.size(), -kInf);
        for (const CommitEvent &e : ev) {
            auto t = static_cast<std::size_t>(e.task);
            firstOf[t] = std::min(firstOf[t], e.sec);
            lastOf[t] = e.sec;
        }
        for (std::size_t t = 0; t < w.tasks.size(); t++) {
            spans.add(run, train, "tenant " + w.tasks[t].space + " commits",
                      off + firstOf[t], off + lastOf[t]);
        }
        double hiCommits = 0.0, allCommits = 0.0;
        for (const CommitEvent &e : ev) {
            if (e.sec > lastOf[hi])
                break;
            allCommits += 1.0;
            if (e.task == static_cast<int>(hi))
                hiCommits += 1.0;
        }
        m["serve.hi_commit_share"] =
            allCommits > 0.0 ? hiCommits / allCommits : 0.0;
        // The coordinator runs one tenant's collect at a time: tenant
        // t's collect spans from its last commit (or the previous
        // tenant's Done, if later) to its own Done. Every such window
        // but the last finisher's holds up a live neighbour.
        std::vector<std::size_t> order(w.tasks.size());
        for (std::size_t t = 0; t < order.size(); t++)
            order[t] = t;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return call.doneSec[a] < call.doneSec[b];
                  });
        double stall = 0.0, previousDone = 0.0;
        for (std::size_t k = 0; k < order.size(); k++) {
            std::size_t t = order[k];
            double done = call.doneSec[t];
            double from = std::max(lastOf[t], previousDone);
            spans.add(run, root, "tenant " + w.tasks[t].space + " done",
                      off, off + done);
            spans.add(run, root, "collect " + w.tasks[t].space,
                      off + from, off + done);
            if (k + 1 < order.size())
                stall += std::max(0.0, done - from);
            previousDone = done;
        }
        m["serve.finish_stall_s"] = stall;
    } else {
        // A solo run's one job is the only, hence highest-priority,
        // tenant, and no neighbour waits for its collect.
        m["serve.hi_commit_share"] = 1.0;
        m["serve.finish_stall_s"] = 0.0;
    }
    return m;
}

} // namespace perfbench
