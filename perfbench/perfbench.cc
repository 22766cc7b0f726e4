/**
 * @file
 * perfbench: the measuring half of the benchmark (perfbench/run.py is
 * the harness that builds it, checks its outputs and prints metrics).
 *
 *   perfbench --mode reference --workload W --seed S
 *       fault-free simulator run of every task of W: the weights,
 *       final loss and search winner each timed run must reproduce.
 *   perfbench --mode time --workload W --seed S --seconds T
 *       timed calls of W, each after a one-subnet set-up call, until
 *       T seconds have passed; per call its wall and fingerprint.
 *   perfbench --mode trace --workload W --seed S --seconds T
 *       --spans PATH
 *       untraced and traced calls in turn, a single-threaded replay
 *       and the layer probes; per-layer metrics, spans to PATH.
 *
 * Each mode prints one JSON object as its last stdout line. The
 * binary refuses (exit 3) to time anything but a Release build
 * without the lock-order witness.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/logging.h"
#include "layers.h"
#include "workload.h"

namespace {

using namespace perfbench;

constexpr int kMinCalls = 3;
constexpr int kMinTracedCalls = 2;

/** Minimal JSON object builder (keys are trusted literals). */
class Json
{
  public:
    Json &raw(const std::string &key, const std::string &json)
    {
        _s += (_s.empty() ? "{" : ", ") + quote(key) + ": " + json;
        return *this;
    }
    Json &num(const std::string &key, double v) { return raw(key, number(v)); }
    Json &str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    Json &flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    std::string done() const { return _s.empty() ? "{}" : _s + "}"; }

    static std::string number(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }
    static std::string quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
        return out + "\"";
    }
    template <typename T, typename F>
    static std::string array(const std::vector<T> &v, F render)
    {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); i++)
            out += (i ? ", " : "") + render(v[i]);
        return out + "]";
    }

  private:
    std::string _s;
};

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Exact rendering of a double, for bitwise comparison. */
std::string
hexFloat(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** A JSON array of already rendered JSON values. */
std::string
objects(const std::vector<std::string> &v)
{
    return Json::array(v, [](const std::string &s) { return s; });
}

std::string
numbers(const std::vector<double> &v)
{
    return Json::array(v, [](double x) { return Json::number(x); });
}

template <typename T>
std::string
counts(const std::vector<T> &v)
{
    return Json::array(v, [](T x) { return std::to_string(x); });
}

std::string
hostJson()
{
    return Json()
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER)
        .flag("lock_witness", naspipe::lockWitnessEnabled())
        .num("hardware_threads", std::thread::hardware_concurrency())
        .done();
}

/**
 * A task's fingerprint: numbers that are pure functions of the seed
 * and must repeat byte for byte (deferrals and times are not).
 */
std::string
taskJson(const Task &task, const TaskOutcome &out)
{
    const naspipe::RunResult &r = out.result;
    const naspipe::RunMetrics &m = r.metrics;
    return Json()
        .str("space", task.space)
        .num("priority", task.priority)
        .flag("failed", out.failed)
        .str("error", out.error)
        .num("finished", m.finishedSubnets)
        .str("hash", hex64(r.supernetHash))
        .str("final_loss", hexFloat(m.finalLoss))
        .num("final_loss_value", m.finalLoss)
        .num("best", static_cast<double>(r.bestSubnet))
        .num("gate_commits", static_cast<double>(m.gateCommits))
        .raw("fwd", counts(m.perStageForwards))
        .raw("bwd", counts(m.perStageBackwards))
        .num("replayed", m.subnetsReplayed)
        .num("recoveries", m.recoveries)
        .done();
}

std::string
callJson(const Workload &w, const CallRecord &call)
{
    std::vector<std::string> tasks;
    for (std::size_t i = 0; i < call.tasks.size(); i++)
        tasks.push_back(taskJson(w.tasks[i], call.tasks[i]));
    return Json()
        .num("wall_s", call.wallSec)
        .num("subnets_per_s", w.uniqueSubnets() / call.wallSec)
        .raw("done_s", numbers(call.doneSec))
        .raw("tasks", objects(tasks))
        .done();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

/** Wall of a one-subnet call: the set-up every call pays. */
double
setupCall(const Workload &w, const std::vector<naspipe::SearchSpace> &spaces,
          int &failed)
{
    CallRecord call = runCall(w, spaces, false, 1);
    for (const TaskOutcome &t : call.tasks)
        failed += t.failed ? 1 : 0;
    return call.wallSec;
}

/**
 * One untimed call first: the process's first call also pays page
 * faults and allocator growth, which a caller pays once, not per call.
 * Its outputs are still reported and checked.
 */
std::string
warmUp(const Workload &w, const std::vector<naspipe::SearchSpace> &spaces)
{
    return callJson(w, runCall(w, spaces, false));
}

std::string
referenceMode(const Workload &w)
{
    std::vector<std::string> tasks;
    for (const Task &task : w.tasks) {
        naspipe::SearchSpace space = naspipe::makeSpaceByName(task.space);
        tasks.push_back(taskJson(
            task, outcomeOf(naspipe::runTraining(space,
                                                 referenceConfig(task)))));
    }
    return Json()
        .str("mode", "reference")
        .raw("host", hostJson())
        .num("expected_recoveries", w.expectedRecoveries)
        .raw("tasks", objects(tasks))
        .done();
}

std::string
timeMode(const Workload &w, const std::vector<naspipe::SearchSpace> &spaces,
         double seconds)
{
    // Keep only each call's fingerprint, so the process's peak RSS is
    // that of one call, not of every result kept alive. A set-up call
    // precedes each timed one, so both sample the same host noise.
    std::vector<double> setup;
    int setupFailed = 0;
    std::vector<std::string> calls;
    std::vector<std::int64_t> makespans;
    std::string warm = warmUp(w, spaces);
    Clock::time_point t0 = Clock::now();
    while (static_cast<int>(calls.size()) < kMinCalls ||
           secondsBetween(t0, Clock::now()) < seconds) {
        setup.push_back(setupCall(w, spaces, setupFailed));
        CallRecord call = runCall(w, spaces, false);
        calls.push_back(callJson(w, call));
        if (makespans.empty())
            makespans =
                logicalSchedules(w, spaces, call, nullptr, "").makespan;
    }
    return Json()
        .str("mode", "time")
        .raw("host", hostJson())
        .raw("setup_s", numbers(setup))
        .num("setup_failed", setupFailed)
        .raw("warmup_call", warm)
        .raw("calls", objects(calls))
        .num("peak_rss_mb", peakRssMb())
        .raw("logical_makespan", counts(makespans))
        .done();
}

std::string
traceMode(const Workload &w, const std::vector<naspipe::SearchSpace> &spaces,
          std::uint64_t seed, double seconds, const std::string &spansPath)
{
    SpanLog spans(Clock::now());
    const std::string runId = w.name + "/seed" + std::to_string(seed);
    std::vector<std::string> untraced, traced;
    std::vector<double> untracedRate, tracedRate;
    std::map<std::string, std::vector<double>> perCall;
    std::vector<std::string> notes;
    Replay replay;
    Logical logical;
    std::vector<double> setup;
    int setupFailed = 0;

    // Untraced and traced calls in turn, so both see the same host.
    std::string warm = warmUp(w, spaces);
    Clock::time_point t0 = Clock::now();
    while (static_cast<int>(traced.size()) < kMinTracedCalls ||
           secondsBetween(t0, Clock::now()) < seconds) {
        setup.push_back(setupCall(w, spaces, setupFailed));
        CallRecord plain = runCall(w, spaces, false);
        untraced.push_back(callJson(w, plain));
        untracedRate.push_back(w.uniqueSubnets() / plain.wallSec);

        std::string run = runId + "/call" + std::to_string(traced.size());
        CallRecord call = runCall(w, spaces, true);
        traced.push_back(callJson(w, call));
        tracedRate.push_back(w.uniqueSubnets() / call.wallSec);
        if (replay.hashes.empty()) {
            // The schedule is a pure function of the seed, so one
            // replay and one logical schedule serve every call.
            replay = replayCall(w, spaces, call, spans, runId + "/replay");
            logical = logicalSchedules(w, spaces, call, &spans,
                                       runId + "/obs");
        }
        for (const auto &[name, value] :
             analyzeCall(w, call, replay, spans, run, notes))
            perCall[name].push_back(value);
    }

    std::map<std::string, double> metrics;
    for (const auto &[name, values] : perCall)
        metrics[name] = median(values);
    metrics["train.fwd_us"] = median(replay.fwdUs);
    metrics["train.bwd_us"] = median(replay.bwdUs);
    metrics["train.eval_us"] = median(replay.evalUs);
    metrics["train.ckpt_save_ms"] = replay.ckptSaveMs;
    metrics["train.ckpt_load_ms"] = replay.ckptLoadMs;
    metrics["train.ckpt_bytes"] = replay.ckptBytes;
    metrics["train.hash_ms"] = replay.hashMs;
    metrics["kernels.tree_dot_ns"] =
        treeDotNs(seed, spans, runId + "/kernels");
    // A serve tenant's logical schedule is its solo one; weight the
    // tenants by their subnets.
    double weighted = 0.0;
    for (std::size_t i = 0; i < w.tasks.size(); i++)
        weighted += logical.efficiency[i] * w.tasks[i].subnets;
    metrics["csp.logical_efficiency"] = weighted / w.uniqueSubnets();
    metrics["obs.trace_overhead"] =
        1.0 - median(tracedRate) / median(untracedRate);

    if (!replay.ckptRoundTrip)
        notes.push_back("error: checkpoint save/load round trip changed "
                        "the weights");
    if (!spansPath.empty() && !spans.write(spansPath))
        notes.push_back("error: cannot write spans to " + spansPath);

    Json m;
    for (const auto &[name, value] : metrics)
        m.num(name, value);
    // Every traced call repeats the same notes; report each once.
    std::vector<std::string> quotedNotes;
    for (const std::string &n : std::set<std::string>(notes.begin(),
                                                      notes.end()))
        quotedNotes.push_back(Json::quote(n));
    return Json()
        .str("mode", "trace")
        .raw("host", hostJson())
        .raw("setup_s", numbers(setup))
        .num("setup_failed", setupFailed)
        .raw("warmup_call", warm)
        .raw("untraced_calls", objects(untraced))
        .raw("traced_calls", objects(traced))
        .raw("metrics", m.done())
        .raw("replay_hashes",
             Json::array(replay.hashes,
                         [](std::uint64_t h) {
                             return Json::quote(hex64(h));
                         }))
        .raw("replay_best", counts(replay.best))
        .raw("logical_makespan", counts(logical.makespan))
        .raw("notes", objects(quotedNotes))
        .done();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --mode reference|time|trace --workload W "
                 "--seed S [--seconds T] [--spans PATH]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            usage(argv[0]);
        args[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0 || !args.count("mode") || !args.count("workload") ||
        !args.count("seed"))
        usage(argv[0]);

    bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
    release = false;
#endif
    if (!release || naspipe::lockWitnessEnabled()) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build%s; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE,
                     naspipe::lockWitnessEnabled()
                         ? " with the lock-order witness"
                         : "");
        return 3;
    }

    // Progress lines (fault injected, job done) are not the program's
    // work; keep warnings.
    naspipe::LogConfig::instance().threshold(naspipe::LogLevel::Warn);

    const std::string mode = args["mode"];
    const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    const double seconds =
        args.count("seconds") ? std::atof(args["seconds"].c_str()) : 1.0;
    Workload w = makeWorkload(args["workload"], seed);
    std::vector<naspipe::SearchSpace> spaces;
    for (const Task &task : w.tasks)
        spaces.push_back(naspipe::makeSpaceByName(task.space));

    std::string out;
    if (mode == "reference")
        out = referenceMode(w);
    else if (mode == "time")
        out = timeMode(w, spaces, seconds);
    else if (mode == "trace")
        out = traceMode(w, spaces, seed, seconds, args["spans"]);
    else
        usage(argv[0]);
    std::printf("%s\n", out.c_str());
    return 0;
}
