#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.h"
#include "exec/parallel_runtime.h"
#include "serve/service.h"

namespace perfbench {

using naspipe::RunResult;
using naspipe::RuntimeConfig;
using naspipe::SearchSpace;
using naspipe::SubnetId;

namespace {

// Sizes. 1024 solo subnets (4 x 512 served) keep one call near half a
// second on a 4-core host, so one run holds a few dozen calls and its
// median is steady under the host's second-scale noise.
constexpr int kSoloSubnets = 1024;
constexpr int kTenantSubnets = 512;
// The largest NLP batch the capacity planner admits at 1-4 stages:
// one reference hash then serves every worker count of a task.
constexpr int kNlpBatch = 141;
constexpr int kCkptInterval = 256;
constexpr int kCrashStage = 1;
// The serve coordinator is polled this often for tenant completion.
constexpr auto kStatusPoll = std::chrono::milliseconds(1);

RuntimeConfig
soloConfig(const Task &task, int subnets)
{
    RuntimeConfig c;
    c.system = naspipe::naspipeSystem();
    c.numStages = task.stages;
    c.totalSubnets = subnets;
    c.batch = task.batch;
    c.seed = task.seed;
    c.ckptInterval = task.ckptInterval;
    if (task.crashAt > 0) {
        naspipe::FaultSpec f;
        f.kind = naspipe::FaultKind::GpuCrash;
        f.atStep = task.crashAt;
        f.stage = kCrashStage;
        c.faults.push_back(f);
    }
    return c;
}

CallRecord
runSolo(const Workload &w, const SearchSpace &space, bool traced,
        int subnets)
{
    const Task &task = w.tasks.front();
    RuntimeConfig config =
        soloConfig(task, subnets > 0 ? subnets : task.subnets);
    CallRecord call;
    std::unique_ptr<CommitRecorder> rec;
    if (traced) {
        std::size_t capacity =
            2 * static_cast<std::size_t>(config.totalSubnets) *
                static_cast<std::size_t>(space.numBlocks()) +
            1024;
        rec = std::make_unique<CommitRecorder>(capacity);
        CommitRecorder *r = rec.get();
        config.commitObserver = [r](std::uint64_t, SubnetId subnet,
                                    std::size_t, int stage) {
            r->record(0, subnet, stage);
        };
        config.recoveryObserver = [&call](int) {
            call.recoverySec.push_back(
                secondsBetween(call.start, Clock::now()));
        };
    }
    call.start = Clock::now();
    if (rec)
        rec->begin(call.start);
    RunResult result = naspipe::runTrainingThreaded(space, config);
    call.wallSec = secondsBetween(call.start, Clock::now());
    call.tasks.push_back(outcomeOf(std::move(result)));
    call.doneSec.push_back(call.wallSec);
    if (rec) {
        call.commits = rec->sorted();
        call.droppedCommits = rec->dropped();
    }
    return call;
}

CallRecord
runServe(const Workload &w, const std::vector<SearchSpace> &spaces,
         bool traced, int subnets)
{
    namespace serve = naspipe::serve;
    std::vector<serve::JobSpec> specs;
    std::size_t capacity = 1024;
    for (std::size_t i = 0; i < w.tasks.size(); i++) {
        const Task &t = w.tasks[i];
        serve::JobSpec spec;
        spec.name = t.space;
        spec.space = t.space;
        spec.seed = t.seed;
        spec.steps = subnets > 0 ? subnets : t.subnets;
        spec.priority = t.priority;
        specs.push_back(spec);
        capacity += 2 * static_cast<std::size_t>(spec.steps) *
                    static_cast<std::size_t>(spaces[i].numBlocks());
    }

    CallRecord call;
    serve::ServiceConfig config;
    config.numStages = w.stages;
    std::unique_ptr<CommitRecorder> rec;
    if (traced) {
        rec = std::make_unique<CommitRecorder>(capacity);
        CommitRecorder *r = rec.get();
        // A fresh service numbers a batch's jobs 1..n in order.
        config.commitObserver = [r](int jobId, std::uint64_t,
                                    SubnetId subnet, std::size_t,
                                    int stage) {
            r->record(jobId - 1, subnet, stage);
        };
        config.recoveryObserver = [&call](int, int) {
            call.recoverySec.push_back(
                secondsBetween(call.start, Clock::now()));
        };
    }

    call.start = Clock::now();
    if (rec)
        rec->begin(call.start);
    serve::SearchService service(config);
    std::string why;
    std::vector<int> ids = service.submitBatch(specs, &why);
    if (ids.size() != specs.size()) {
        std::fprintf(stderr, "perfbench: serve submit rejected: %s\n",
                     why.c_str());
        std::exit(2);
    }
    std::atomic<bool> finished{false};
    std::thread coordinator([&] {
        service.run();
        finished.store(true);
    });
    // The client side of the service: poll its public status until
    // run() returns, noting when each tenant turns Done.
    call.doneSec.assign(ids.size(), -1.0);
    while (!finished.load()) {
        std::vector<serve::JobStatus> status = service.status();
        double now = secondsBetween(call.start, Clock::now());
        for (std::size_t i = 0; i < status.size(); i++) {
            if (call.doneSec[i] < 0.0 &&
                (status[i].state == serve::JobState::Done ||
                 status[i].state == serve::JobState::Failed))
                call.doneSec[i] = now;
        }
        std::this_thread::sleep_for(kStatusPoll);
    }
    coordinator.join();
    call.wallSec = secondsBetween(call.start, Clock::now());
    for (std::size_t i = 0; i < ids.size(); i++) {
        if (call.doneSec[i] < 0.0)
            call.doneSec[i] = call.wallSec;
        const serve::ServeJob *job = service.job(ids[i]);
        TaskOutcome out = outcomeOf(job->result());
        if (job->state() != serve::JobState::Done) {
            out.failed = true;
            out.error = job->error().empty() ? service.serviceError()
                                             : job->error();
        }
        call.tasks.push_back(std::move(out));
    }
    if (rec) {
        call.commits = rec->sorted();
        call.droppedCommits = rec->dropped();
    }
    return call;
}

} // namespace

TaskOutcome
outcomeOf(RunResult result)
{
    TaskOutcome out;
    out.failed = result.failed || result.oom;
    out.error = result.oom ? "capacity planner rejected the run"
                           : result.error;
    out.result = std::move(result);
    return out;
}

int
Workload::uniqueSubnets() const
{
    int total = 0;
    for (const Task &t : tasks)
        total += t.subnets;
    return total;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "solo-1w", "solo-3w", "ckpt-crash-3w", "serve-mix"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "solo-1w" || name == "solo-3w") {
        // Both solo workloads train the identical task, so their
        // ratio is the speedup of 3 workers over 1.
        Task t;
        t.space = "NLP.c3";
        t.stages = name == "solo-1w" ? 1 : 3;
        t.subnets = kSoloSubnets;
        t.batch = kNlpBatch;
        t.seed = naspipe::deriveSeed(seed, "solo");
        w.stages = t.stages;
        w.tasks.push_back(t);
    } else if (name == "ckpt-crash-3w") {
        Task t;
        t.space = "NLP.c1";
        t.stages = 3;
        t.subnets = kSoloSubnets;
        t.batch = kNlpBatch;
        t.seed = naspipe::deriveSeed(seed, "ckpt-crash");
        t.ckptInterval = kCkptInterval;
        // Between two barriers at about 3/4 of the run, so the
        // rollback replays a quarter stride of subnets.
        t.crashAt = 3 * kSoloSubnets / 4 + kCkptInterval / 4;
        w.stages = 3;
        w.expectedRecoveries = 1;
        w.tasks.push_back(t);
    } else if (name == "serve-mix") {
        const char *spaces[] = {"NLP.c1", "CV.c1", "NLP.c3", "CV.c3"};
        for (int i = 0; i < 4; i++) {
            Task t;
            t.space = spaces[i];
            t.stages = 3;
            t.subnets = kTenantSubnets;
            t.priority = i == 0 ? 3 : 1;
            t.seed = naspipe::deriveSeed(
                seed, static_cast<std::uint64_t>(i + 1));
            w.tasks.push_back(t);
        }
        w.serve = true;
        w.stages = 3;
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     name.c_str());
        std::exit(2);
    }
    return w;
}

RuntimeConfig
referenceConfig(const Task &task)
{
    Task faultFree = task;
    faultFree.crashAt = 0;
    return soloConfig(faultFree, task.subnets);
}

CommitRecorder::CommitRecorder(std::size_t capacity)
    : _events(capacity)
{
}

void
CommitRecorder::record(int task, SubnetId subnet, int stage)
{
    std::size_t slot = _next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= _events.size())
        return;
    _events[slot] = CommitEvent{secondsBetween(_epoch, Clock::now()),
                                subnet, task, stage};
}

std::vector<CommitEvent>
CommitRecorder::sorted() const
{
    std::size_t n = std::min(_next.load(), _events.size());
    std::vector<CommitEvent> out(_events.begin(),
                                 _events.begin() +
                                     static_cast<std::ptrdiff_t>(n));
    std::stable_sort(out.begin(), out.end(),
                     [](const CommitEvent &a, const CommitEvent &b) {
                         return a.sec < b.sec;
                     });
    return out;
}

std::uint64_t
CommitRecorder::dropped() const
{
    std::size_t n = _next.load();
    return n > _events.size() ? n - _events.size() : 0;
}

CallRecord
runCall(const Workload &workload,
        const std::vector<SearchSpace> &spaces, bool traced,
        int subnets)
{
    return workload.serve
               ? runServe(workload, spaces, traced, subnets)
               : runSolo(workload, spaces.front(), traced, subnets);
}

} // namespace perfbench
