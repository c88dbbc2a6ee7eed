/**
 * @file
 * Online-epoch benchmark: the measuring program.
 *
 * Runs one workload of the online market (eval::OnlineSimulator driven
 * by the "AB+FB" fallback ladder over estimated parallel fractions, as
 * `amdahl_market trace` runs it) and prints one JSON document of raw
 * measurements on stdout: clearing-call timestamps per repetition,
 * set-up and recovery times, quality metrics, and — with --trace 1 —
 * the spans and registry counters of a traced repetition. run.py turns
 * them into metrics; this program only measures.
 *
 * Every layer is timed from outside, at the calls into its public
 * functions: a forwarding AllocationPolicy stamps each clearing call,
 * and the traced repetition repeats runDurable's public call sequence
 * (runEpoch, encodeOnlineState, crc32, commitEpoch) with a span around
 * each call. Nothing under src/ is changed to be measured.
 *
 *   epoch_bench --workload NAME --seed N [--holdout] --seconds S
 *               --trace 0|1 --state-dir DIR [--spans-out FILE]
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "alloc/fallback_policy.hh"
#include "common/crc32.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "core/bidding_simd.hh"
#include "eval/online.hh"
#include "exec/parallelism.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/durability/kill_points.hh"
#include "robustness/fault_injector.hh"
#include "sim/workload_library.hh"

namespace {

using namespace amdahl;
using Clock = std::chrono::steady_clock;

constexpr auto kSource = eval::FractionSource::Estimated;

/** Set-ups timed per run; the median is reported. */
constexpr int kSetupRepeats = 15;

/**
 * Repetitions an untraced run makes, however long they take.
 * Repetition r draws its inputs from the r-th substream of the
 * workload seed, so a run averages over several input streams; the
 * quality metrics are the mean over exactly these first repetitions.
 * A traced run needs only repetition 0, which it traces.
 */
constexpr int kMinReps = 3;

/**
 * Crashed states an untraced run recovers, one per input stream of its
 * first repetitions: the replayed epochs' cost varies with the inputs,
 * so recover_s averages over states.
 */
constexpr int kRecoveryStates = 6;

/**
 * Journaled epochs the crashed child leaves for recovery to replay: a
 * full journal under the default snapshot cadence of 8.
 */
constexpr int kCrashAfterCommits = 7;

std::int64_t
nowNs()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "epoch_bench: " << message << "\n";
    std::exit(2);
}

/**
 * Pins the process to the highest-numbered CPU it may use. On a shared
 * VM this kept the single clearing thread from migrating and narrowed
 * the run-to-run spread of a fixed compute loop; release() gives the
 * 2-thread probe the full set back.
 */
class CpuPin
{
  public:
    CpuPin()
    {
        CPU_ZERO(&allowed_);
        if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0)
            return;
        for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpu_ < 0; --cpu) {
            if (CPU_ISSET(cpu, &allowed_))
                cpu_ = cpu;
        }
        if (cpu_ < 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu_, &one);
        if (::sched_setaffinity(0, sizeof(one), &one) != 0)
            cpu_ = -1;
    }

    void
    release()
    {
        (void)::sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }

    /** @return The pinned CPU, or -1 when pinning failed. */
    int cpu() const { return cpu_; }

  private:
    cpu_set_t allowed_;
    int cpu_ = -1;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * One workload: the scenario plus how a repetition is cut into warm-up
 * and measurement. Each workload loads one layer and bypasses the
 * others; README.md gives the reasons for every number here.
 */
struct Scenario
{
    eval::OnlineOptions opts;
    int epochs = 0;   //!< Horizon of one repetition.
    int warmup = 0;   //!< Leading clearing calls excluded from timing.
    int prefill = 0;  //!< Durable: epochs run before the seeded snapshot.
    bool durable = false;
};

void
setHorizon(eval::OnlineOptions &opts, int epochs)
{
    opts.horizonSeconds = opts.epochSeconds * epochs;
}

Scenario
scenario(std::string_view name, std::uint64_t inputSeed)
{
    Scenario s;
    eval::OnlineOptions &o = s.opts;
    o.seed = inputSeed;
    o.coresPerServer = 24;
    o.admission.enabled = true;
    o.admission.maxLoadFactor = 12.0;
    if (name == "clear_cold") {
        // ~5.8k jobs at the admission cap, ~6% churn per epoch.
        o.users = 500;
        o.servers = 480;
        o.arrivalsPerServerEpoch = 1.25;
        o.workScaleMin = 1.0;
        o.workScaleMax = 3.0;
        s.warmup = 20;
        s.epochs = 60;
    } else if (name == "steady_delta") {
        // ~1.9k jobs at the cap, ~1.7% churn, delta re-clearing on.
        o.users = 1000;
        o.servers = 160;
        o.arrivalsPerServerEpoch = 2.5;
        o.workScaleMin = 5.0;
        o.workScaleMax = 15.0;
        o.delta.reuseKernel = true;
        o.delta.warmStartBids = true;
        s.warmup = 10;
        s.epochs = 60;
    } else if (name == "durable_long") {
        // Tens of jobs in flight over a job log of ~40k entries.
        o.users = 256;
        o.servers = 8;
        o.arrivalsPerServerEpoch = 5.0;
        o.workScaleMin = 0.01;
        o.workScaleMax = 0.04;
        o.admission.enabled = false;
        s.durable = true;
        s.prefill = 1000;
        s.warmup = 2;
        s.epochs = s.prefill + 100;
    } else if (name == "sharded_lossy") {
        // ~480 jobs over 4 simulated shards, lossy and delayed links.
        o.users = 600;
        o.servers = 40;
        o.arrivalsPerServerEpoch = 9.0;
        o.workScaleMin = 1.0;
        o.workScaleMax = 3.0;
        o.net.shards = 4;
        o.net.faults.lossRate = 0.05;
        o.net.faults.delayMin = 0;
        o.net.faults.delayMax = 2;
        o.net.faults.seed = mix64(inputSeed ^ 0x6e6574ULL);
        s.warmup = 5;
        s.epochs = 30;
    } else {
        die("unknown workload '" + std::string(name) + "'");
    }
    setHorizon(o, s.epochs);
    return s;
}

// ---------------------------------------------------------------------
// Clearing-call recorder
// ---------------------------------------------------------------------

struct ClearCall
{
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    int mode = 0;       //!< alloc::ServeMode as an integer.
    int iterations = 0; //!< Bidding rounds of the serving rung.
    std::size_t jobs = 0;
};

std::size_t
jobCount(const core::FisherMarket &market)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < market.userCount(); ++i)
        n += market.user(i).jobs.size();
    return n;
}

/**
 * Forwarding AllocationPolicy: stamps every clearing call and forwards
 * it — and name(), so the state fingerprint is unchanged — to the
 * wrapped policy. Epoch time is the gap between successive calls,
 * which covers the durable commit in runDurable as well as run().
 */
class ClearingRecorder final : public alloc::AllocationPolicy
{
  public:
    explicit ClearingRecorder(const alloc::AllocationPolicy &inner)
        : inner_(inner)
    {}

    std::string name() const override { return inner_.name(); }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market) const override
    {
        return timed(market, [&] { return inner_.allocate(market); });
    }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market,
             const core::BidTransportFaults &faults) const override
    {
        return timed(market,
                     [&] { return inner_.allocate(market, faults); });
    }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market,
             const core::ClearingContext &ctx) const override
    {
        return timed(market,
                     [&] { return inner_.allocate(market, ctx); });
    }

    /** Forget recorded calls and captures. */
    void
    reset(std::vector<std::size_t> captureAt = {})
    {
        calls.clear();
        captured.clear();
        captureAt_ = std::move(captureAt);
    }

    mutable std::vector<ClearCall> calls;
    mutable std::vector<core::FisherMarket> captured;

  private:
    template <class Clear>
    alloc::AllocationResult
    timed(const core::FisherMarket &market, Clear &&clear) const
    {
        ClearCall call;
        call.jobs = jobCount(market);
        if (std::find(captureAt_.begin(), captureAt_.end(),
                      calls.size()) != captureAt_.end())
            captured.push_back(market);
        call.t0 = nowNs();
        alloc::AllocationResult result = clear();
        call.t1 = nowNs();
        call.mode = static_cast<int>(result.mode);
        call.iterations = result.outcome.iterations;
        calls.push_back(call);
        return result;
    }

    const alloc::AllocationPolicy &inner_;
    std::vector<std::size_t> captureAt_;
};

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

/** Minimal streaming JSON writer (objects, arrays, scalars). */
class Json
{
  public:
    Json &
    key(std::string_view k)
    {
        comma();
        appendJsonEscaped(out_, k);
        out_ += ':';
        fresh_ = true;
        return *this;
    }
    Json &num(double v) { return raw(jsonNumber(v)); }
    Json &integer(std::int64_t v) { return raw(std::to_string(v)); }
    Json &boolean(bool v) { return raw(v ? "true" : "false"); }
    Json &
    str(std::string_view v)
    {
        comma();
        appendJsonEscaped(out_, v);
        return *this;
    }
    Json &open(char c) { comma(); out_ += c; fresh_ = true; return *this; }
    Json &close(char c) { out_ += c; fresh_ = false; return *this; }
    const std::string &text() const { return out_; }

  private:
    Json &
    raw(const std::string &v)
    {
        comma();
        out_ += v;
        return *this;
    }
    void
    comma()
    {
        if (!fresh_ && !out_.empty())
            out_ += ',';
        fresh_ = false;
    }
    std::string out_;
    bool fresh_ = true;
};

void
writeCalls(Json &j, const std::vector<ClearCall> &calls)
{
    j.key("t0").open('[');
    for (const ClearCall &c : calls)
        j.integer(c.t0);
    j.close(']').key("t1").open('[');
    for (const ClearCall &c : calls)
        j.integer(c.t1);
    j.close(']').key("modes").open('[');
    for (const ClearCall &c : calls)
        j.integer(c.mode);
    j.close(']').key("iterations").open('[');
    for (const ClearCall &c : calls)
        j.integer(c.iterations);
    j.close(']').key("jobs").open('[');
    for (const ClearCall &c : calls)
        j.integer(static_cast<std::int64_t>(c.jobs));
    j.close(']');
}

void
writeQuality(Json &j, const eval::OnlineMetrics &m)
{
    j.key("quality").open('{')
        .key("jobs_arrived").integer(m.jobsArrived)
        .key("jobs_completed").integer(m.jobsCompleted)
        .key("weighted_speedup").num(m.meanWeightedSpeedup)
        .key("entitlement_mape").num(m.longRunEntitlementMape)
        .key("mean_completion_s").num(m.meanCompletionSeconds)
        .key("shed_frac").num(m.sheddingRate)
        .close('}');
}

// ---------------------------------------------------------------------
// Durable-state helpers
// ---------------------------------------------------------------------

/** The default durability options on @p dir. */
durability::DurabilityOptions
durabilityOptions(const std::string &dir)
{
    durability::DurabilityOptions d;
    d.stateDir = dir;
    return d;
}

/** Open a store on an emptied directory. */
durability::DurableStateStore
freshStore(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    auto opened = durability::DurableStateStore::open(durabilityOptions(dir));
    if (!opened.ok())
        die("cannot open state directory " + dir + ": " +
            opened.status().toString());
    return opened.take();
}

/**
 * Make @p state the store's durable starting point: a snapshot at its
 * epoch and an empty journal, as a crash right after that snapshot
 * leaves it. runDurable then resumes from it, so the warm-up that
 * builds the job log is not paid through the durable path.
 */
void
seedSnapshot(durability::DurableStateStore &store,
             const eval::OnlineRunState &state,
             const eval::OnlineOptions &opts)
{
    if (Status st = store.beginFresh(); !st.isOk())
        die("seeding: " + st.toString());
    durability::OnlineSnapshotEnvelope env;
    env.state = eval::encodeOnlineState(state, opts);
    if (Status st = store.finishRun(
            static_cast<std::uint64_t>(state.epoch),
            [&] { return durability::encodeSnapshotEnvelope(env); });
        !st.isOk())
        die("seeding: " + st.toString());
}

std::string
finalSnapshot(const durability::DurableStateStore &store)
{
    return store.recover().snapshotPayload;
}

// ---------------------------------------------------------------------
// Spans of the traced repetition
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::string phase; //!< "main" or "probe".
    int epoch = 0;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
};

struct SpanLog
{
    std::vector<Span> spans;
    std::string phase = "main";

    template <class F>
    auto
    time(const char *name, int epoch, F &&f)
    {
        const std::int64_t t0 = nowNs();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            spans.push_back({name, phase, epoch, t0, nowNs()});
        } else {
            auto result = f();
            spans.push_back({name, phase, epoch, t0, nowNs()});
            return result;
        }
    }
};

// ---------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------

struct RepResult
{
    std::vector<ClearCall> calls;
    std::int64_t end = 0;
    Status status = Status::ok();
    eval::OnlineMetrics metrics;
    std::string snapshot; //!< Durable: the final snapshot payload.
};

class Bench
{
  public:
    Bench(std::string workload, std::uint64_t inputSeed,
          std::string stateDir, CpuPin &pin)
        : workload_(std::move(workload)), inputSeed_(inputSeed),
          scenario_(scenarioFor(0)), stateDir_(std::move(stateDir)),
          pin_(pin), recorder_(policy_)
    {}

    void
    writeScenario(Json &j) const
    {
        j.key("warmup").integer(scenario_.warmup)
            .key("calls_per_rep")
            .integer(scenario_.epochs - epochOffset())
            .key("epoch_offset").integer(epochOffset());
    }

    /** Set up kSetupRepeats times; keep the last. */
    void
    setUp(Json &j)
    {
        std::vector<double> setup, characterize;
        for (int r = 0; r < kSetupRepeats; ++r) {
            sim_.reset();
            cache_.reset();
            const std::int64_t t0 = nowNs();
            cache_ = std::make_unique<eval::CharacterizationCache>();
            for (std::size_t w = 0; w < sim::workloadLibrary().size();
                 ++w) {
                (void)cache_->of(w);
                (void)cache_->fraction(w, kSource);
                (void)cache_->fullDatasetSeconds(w, 1);
            }
            characterize.push_back(secondsSince(t0));
            sim_.emplace(*cache_, scenario_.opts);
            const eval::OnlineRunState state = sim_->initState(policy_);
            if (state.epoch != 0)
                die("initState did not start at epoch 0");
            if (scenario_.durable)
                (void)freshStore(stateDir_ + "/setup");
            setup.push_back(secondsSince(t0));
        }
        writeList(j, "setup_s", setup);
        writeList(j, "characterize_s", characterize);
    }

    /** Durable workloads: run the warm-up that builds the job log. */
    void
    prefill()
    {
        if (scenario_.durable)
            prefilled_ = runEpochs(*sim_, scenario_.prefill);
    }

    /**
     * Untraced repetitions until @p seconds have passed and at least
     * @p minReps have run.
     */
    void
    measure(Json &j, double seconds, int minReps)
    {
        const std::int64_t t0 = nowNs();
        j.key("reps").open('[');
        for (int r = 0; r < minReps || secondsSince(t0) < seconds; ++r) {
            const Scenario sc = scenarioFor(r);
            eval::OnlineSimulator sim(*cache_, sc.opts);
            RepResult rep;
            if (sc.durable) {
                rep = durableRep(sim, r == 0 ? *prefilled_
                                             : runEpochs(sim, sc.prefill));
            } else {
                rep = plainRep(sim);
            }
            j.open('{');
            writeCalls(j, rep.calls);
            j.key("end").integer(rep.end)
                .key("ok").boolean(rep.status.isOk())
                .key("status").str(rep.status.toString());
            writeQuality(j, rep.metrics);
            if (r == 0)
                reference_ = rep.snapshot;
            j.close('}');
        }
        j.close(']');
    }

    /**
     * For each of @p states input streams: crash a child at a kill
     * point, then time open + recover() + runDurable(resume) on the
     * state directory it left. The first recovered run must end with
     * the final snapshot bytes of an uninterrupted run from the same
     * durable starting point.
     */
    void
    recovery(Json &j, SpanLog *trace, int states)
    {
        std::vector<double> seconds;
        bool crashed = true, identical = false;
        int replayed = -1;
        std::size_t stateBytes = 0;
        for (int r = 0; r < states; ++r) {
            const Scenario sc = scenarioFor(r);
            eval::OnlineOptions opts = sc.opts;
            const int start = sc.durable ? sc.prefill : sc.warmup;
            setHorizon(opts, start + kCrashAfterCommits + 1);
            eval::OnlineSimulator sim(*cache_, opts);
            const eval::OnlineRunState begin =
                sc.durable && r == 0 ? *prefilled_ : runEpochs(sim, start);
            if (r == 0)
                stateBytes = eval::encodeOnlineState(begin, opts).size();

            const std::string dir = stateDir_ + "/crashed";
            {
                auto store = freshStore(dir);
                seedSnapshot(store, begin, opts);
            }
            if (!crashChild(sim, dir)) {
                crashed = false;
                break;
            }

            // The uninterrupted run from the same starting point; the
            // traced one repeats runDurable's call sequence with spans.
            std::string reference;
            if (r == 0) {
                auto store = freshStore(stateDir_ + "/reference");
                seedSnapshot(store, begin, opts);
                if (trace) {
                    trace->phase = "probe";
                    reference = tracedDurable(sim, store, *trace, 0);
                    trace->phase = "main";
                } else {
                    const durability::RecoveredState rec = store.recover();
                    auto run =
                        sim.runDurable(policy_, kSource, store, &rec);
                    if (!run.ok())
                        die("reference run: " + run.status().toString());
                    reference = finalSnapshot(store);
                }
            }

            const std::int64_t t0 = nowNs();
            auto opened = durability::DurableStateStore::open(
                durabilityOptions(dir));
            if (!opened.ok())
                die("recovery open: " + opened.status().toString());
            auto store = opened.take();
            const durability::RecoveredState rec = store.recover();
            const std::int64_t tRecovered = nowNs();
            auto run = sim.runDurable(policy_, kSource, store, &rec);
            const std::int64_t t1 = nowNs();
            seconds.push_back(static_cast<double>(t1 - t0) * 1e-9);
            if (trace) {
                trace->spans.push_back(
                    {"robustness.recover", "probe", r, t0, tRecovered});
                trace->spans.push_back(
                    {"robustness.resume", "probe", r, tRecovered, t1});
            }
            if (!run.ok())
                die("recovery run: " + run.status().toString());
            const int n = run.value().recoveryReplayedEpochs;
            replayed = r == 0 || n == replayed ? n : -1;
            if (r == 0)
                identical = finalSnapshot(store) == reference;
        }
        j.key("recovery").open('{').key("crashed").boolean(crashed);
        writeList(j, "seconds", seconds);
        j.key("replayed").integer(replayed)
            .key("journaled").integer(kCrashAfterCommits)
            .key("identical").boolean(identical)
            .key("state_bytes").integer(static_cast<std::int64_t>(stateBytes))
            .close('}');
    }

    /**
     * One traced repetition: the run's public call sequence with spans
     * around each layer call, phase timers on, and the registry read
     * over the measured window.
     */
    void
    traced(Json &j, SpanLog &trace)
    {
        const int n = scenario_.epochs - epochOffset();
        const std::size_t w = static_cast<std::size_t>(scenario_.warmup);
        const std::size_t last = static_cast<std::size_t>(n - 1);
        recorder_.reset({w, w + (last - w) / 2, last});
        (void)obs::setTimingEnabled(true);
        std::string snapshot;
        eval::OnlineMetrics metrics;
        if (scenario_.durable) {
            auto store = freshStore(stateDir_ + "/traced");
            seedSnapshot(store, *prefilled_, scenario_.opts);
            snapshot = tracedDurable(*sim_, store, trace,
                                     scenario_.warmup, &metrics);
        } else {
            eval::OnlineRunState state = sim_->initState(recorder_);
            metrics = tracedLoop(*sim_, state, nullptr, trace,
                                 scenario_.warmup);
        }
        (void)obs::setTimingEnabled(false);

        j.key("traced").open('{');
        writeCalls(j, recorder_.calls);
        writeQuality(j, metrics);
        if (scenario_.durable)
            j.key("snapshot_identical").boolean(snapshot == reference_);
        j.key("net_ticks").integer(static_cast<std::int64_t>(netTicks_))
            .key("admitted").open('[');
        for (std::size_t a : admitted_)
            j.integer(static_cast<std::int64_t>(a));
        j.close(']');
        writeRegistry(j, window_);
        reclearProbes(j);
        j.close('}');
    }

    void
    writeSpans(Json &j, const SpanLog &trace) const
    {
        j.key("spans").open('[');
        for (const Span &s : trace.spans) {
            j.open('[').str(s.name).str(s.phase).integer(s.epoch)
                .integer(s.t0).integer(s.t1).close(']');
        }
        j.close(']');
    }

  private:
    /** Repetition @p r's scenario; repetition 0 uses the input seed. */
    Scenario
    scenarioFor(int r) const
    {
        return scenario(workload_,
                        r == 0 ? inputSeed_
                               : substreamSeed(inputSeed_, 0x726570ULL,
                                               static_cast<std::uint64_t>(r)));
    }

    static void
    writeList(Json &j, std::string_view key, const std::vector<double> &v)
    {
        j.key(key).open('[');
        for (double x : v)
            j.num(x);
        j.close(']');
    }

    /**
     * Run @p sim durably from the state seeded in @p dir in a child
     * process armed to die at the kill point after kCrashAfterCommits
     * epoch commits. @return true when it died there.
     */
    bool
    crashChild(eval::OnlineSimulator &sim, const std::string &dir) const
    {
        std::cout.flush();
        std::cerr.flush();
        const pid_t child = ::fork();
        if (child < 0)
            die("fork failed");
        if (child == 0) {
            auto opened =
                durability::DurableStateStore::open(durabilityOptions(dir));
            if (!opened.ok() ||
                !durability::armKillPoint(
                     "epoch.post_commit:" +
                     std::to_string(kCrashAfterCommits))
                     .isOk())
                std::_Exit(3);
            auto store = opened.take();
            const durability::RecoveredState rec = store.recover();
            (void)sim.runDurable(policy_, kSource, store, &rec);
            std::_Exit(4); // the kill point was not reached
        }
        int wstatus = 0;
        if (::waitpid(child, &wstatus, 0) != child)
            die("waitpid failed");
        return WIFEXITED(wstatus) &&
               WEXITSTATUS(wstatus) == durability::kKillExitCode;
    }

    /** Epoch index at which recorded clearing calls start. */
    int
    epochOffset() const
    {
        return scenario_.durable ? scenario_.prefill : 0;
    }

    /** Fresh state advanced @p epochs epochs by the bare policy. */
    eval::OnlineRunState
    runEpochs(const eval::OnlineSimulator &sim, int epochs) const
    {
        eval::OnlineRunState state = sim.initState(policy_);
        const robustness::FaultInjector injector(
            sim.options().faults,
            static_cast<std::size_t>(sim.options().servers),
            sim.epochCount());
        while (state.epoch < epochs)
            sim.runEpoch(state, policy_, kSource, injector);
        return state;
    }

    RepResult
    plainRep(eval::OnlineSimulator &sim)
    {
        RepResult rep;
        recorder_.reset();
        rep.metrics = sim.run(recorder_, kSource);
        rep.end = nowNs();
        rep.calls = recorder_.calls;
        return rep;
    }

    RepResult
    durableRep(eval::OnlineSimulator &sim,
               const eval::OnlineRunState &start)
    {
        RepResult rep;
        auto store = freshStore(stateDir_ + "/run");
        seedSnapshot(store, start, sim.options());
        const durability::RecoveredState rec = store.recover();
        recorder_.reset();
        auto run = sim.runDurable(recorder_, kSource, store, &rec);
        rep.end = nowNs();
        rep.calls = recorder_.calls;
        if (run.ok()) {
            rep.metrics = run.take();
            rep.snapshot = finalSnapshot(store);
        } else {
            rep.status = run.status();
        }
        std::filesystem::remove_all(stateDir_ + "/run");
        return rep;
    }

    /**
     * runDurable's public call sequence from @p store's seeded
     * snapshot: runEpoch, encodeOnlineState, crc32, commitEpoch per
     * epoch, then finishRun. @return the final snapshot payload.
     */
    std::string
    tracedDurable(const eval::OnlineSimulator &sim,
                  durability::DurableStateStore &store, SpanLog &trace,
                  int warmup, eval::OnlineMetrics *metrics = nullptr)
    {
        const durability::RecoveredState rec = store.recover();
        auto env = durability::decodeSnapshotEnvelope(rec.snapshotPayload);
        if (!env.ok())
            die("traced resume: " + env.status().toString());
        auto decoded = eval::decodeOnlineState(
            env.value().state, sim.options(), policy_.name());
        if (!decoded.ok())
            die("traced resume: " + decoded.status().toString());
        if (Status st = store.beginResume(rec); !st.isOk())
            die("traced resume: " + st.toString());
        eval::OnlineRunState state = decoded.take();
        const eval::OnlineOptions &opts = sim.options();
        const int epochs = sim.epochCount();
        eval::OnlineMetrics m = tracedLoop(sim, state, &store, trace,
                                           warmup);
        trace.time("robustness.snapshot", epochs, [&] {
            durability::OnlineSnapshotEnvelope done;
            done.completed = true;
            if (Status st = store.finishRun(
                    static_cast<std::uint64_t>(epochs),
                    [&] {
                        done.state = eval::encodeOnlineState(state, opts);
                        return durability::encodeSnapshotEnvelope(done);
                    });
                !st.isOk())
                die("traced finish: " + st.toString());
        });
        if (metrics)
            *metrics = m;
        return finalSnapshot(store);
    }

    /** The epoch loop with spans; @p store null for in-memory runs. */
    eval::OnlineMetrics
    tracedLoop(const eval::OnlineSimulator &sim, eval::OnlineRunState &state,
               durability::DurableStateStore *store, SpanLog &trace,
               int warmup)
    {
        const eval::OnlineOptions &opts = sim.options();
        const int epochs = sim.epochCount();
        const int measureFrom = state.epoch + warmup;
        const robustness::FaultInjector injector(
            opts.faults, static_cast<std::size_t>(opts.servers), epochs);
        const bool main = trace.phase == "main";
        std::uint64_t ticks0 = 0;
        if (main)
            admitted_.clear();
        while (state.epoch < epochs) {
            const int epoch = state.epoch;
            if (main && epoch == measureFrom) {
                obs::metrics().reset();
                ticks0 = state.net.ticks;
            }
            const std::size_t logBefore = state.jobs.size();
            trace.time("eval.run_epoch", epoch, [&] {
                sim.runEpoch(state, recorder_, kSource, injector);
            });
            if (main && epoch >= measureFrom)
                admitted_.push_back(state.jobs.size() - logBefore);
            if (!store)
                continue;
            const std::string encoded = trace.time(
                "robustness.encode", epoch,
                [&] { return eval::encodeOnlineState(state, opts); });
            durability::JournalEntry entry;
            entry.epoch = static_cast<std::uint64_t>(state.epoch);
            entry.eventCrc = trace.time("robustness.crc", epoch,
                                        [&] { return crc32(encoded); });
            const std::uint64_t snapshots =
                store->counters().snapshotsWritten;
            const std::int64_t t0 = nowNs();
            durability::OnlineSnapshotEnvelope env;
            if (Status st = store->commitEpoch(entry, [&] {
                    env.state = encoded;
                    return durability::encodeSnapshotEnvelope(env);
                });
                !st.isOk())
                die("traced commit: " + st.toString());
            trace.spans.push_back(
                {store->counters().snapshotsWritten != snapshots
                     ? "robustness.snapshot"
                     : "robustness.commit",
                 trace.phase, epoch, t0, nowNs()});
        }
        if (main) {
            window_ = obs::metrics().snapshot();
            netTicks_ = state.net.ticks - ticks0;
        }
        return sim.finalize(state);
    }

    static void
    writeRegistry(Json &j, const obs::MetricsSnapshot &snap)
    {
        j.key("counters").open('{');
        for (const auto &c : snap.counters)
            j.key(c.name).integer(static_cast<std::int64_t>(c.value));
        j.close('}').key("timers_us").open('{');
        for (const auto &h : snap.histograms)
            j.key(h.name).num(h.sum);
        j.close('}');
    }

    /**
     * Re-clear the captured markets: in-process against sharded (the
     * workload's own network, or 4 fault-free shards) for the net
     * layer's overhead, and at 2 threads against 1 for the exec layer,
     * whose allocations must be identical.
     */
    void
    reclearProbes(Json &j)
    {
        net::ShardedOptions sharding = scenario_.opts.net;
        if (!sharding.enabled())
            sharding.shards = 4;
        double inProcess = 0.0, sharded = 0.0, twoThreads = 0.0;
        bool identical = true;
        std::uint64_t tasks = 0;
        pin_.release();
        for (const core::FisherMarket &market : recorder_.captured) {
            std::int64_t t0 = nowNs();
            const alloc::AllocationResult one = policy_.allocate(market);
            inProcess += secondsSince(t0);

            net::NetSession session;
            core::ClearingContext ctx;
            ctx.sharding = &sharding;
            ctx.session = &session;
            t0 = nowNs();
            (void)policy_.allocate(market, ctx);
            sharded += secondsSince(t0);

            (void)exec::setThreadCount(2);
            const std::uint64_t before =
                obs::metrics().counter("exec.tasks").value();
            t0 = nowNs();
            const alloc::AllocationResult two = policy_.allocate(market);
            twoThreads += secondsSince(t0);
            tasks += obs::metrics().counter("exec.tasks").value() - before;
            (void)exec::setThreadCount(1);
            identical = identical && one.cores == two.cores &&
                        one.outcome.allocation == two.outcome.allocation;
        }
        j.key("reclear").open('{')
            .key("markets").integer(static_cast<std::int64_t>(
                recorder_.captured.size()))
            .key("in_process_s").num(inProcess)
            .key("sharded_s").num(sharded)
            .key("two_threads_s").num(twoThreads)
            .key("exec_tasks").integer(static_cast<std::int64_t>(tasks))
            .key("threads_identical").boolean(identical)
            .close('}');
    }

    std::string workload_;
    std::uint64_t inputSeed_;
    Scenario scenario_;
    std::string stateDir_;
    CpuPin &pin_;
    const alloc::FallbackPolicy policy_;
    ClearingRecorder recorder_;
    std::unique_ptr<eval::CharacterizationCache> cache_;
    std::optional<eval::OnlineSimulator> sim_;
    std::optional<eval::OnlineRunState> prefilled_;
    std::string reference_; //!< Repetition 0's final snapshot (durable).
    obs::MetricsSnapshot window_;
    std::uint64_t netTicks_ = 0;
    std::vector<std::size_t> admitted_;
};

// ---------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
        if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                         &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                         &regs[4 * leaf + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

std::string
filesystemType(const std::string &path)
{
    struct statfs fs{};
    if (::statfs(path.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%lx",
                      static_cast<unsigned long>(fs.f_type));
        return buf;
    }
    }
}

void
writeEnvironment(Json &j, const std::string &stateDir, int pinnedCpu)
{
    using core::detail::BidKernelMode;
    const std::size_t grain = exec::bidUpdateGrain(0);
    j.key("env").open('{')
        .key("threads").integer(exec::threadCount())
        .key("kernel").str(core::detail::bidKernelMode() ==
                                   BidKernelMode::Simd
                               ? "simd"
                               : "scalar")
        .key("grain").str(grain == 0 ? "default" : std::to_string(grain))
        .key("cpu").str(cpuModel())
        .key("nproc").integer(exec::hardwareThreads())
        .key("pinned_cpu").integer(pinnedCpu)
        .key("state_fs").str(filesystemType(stateDir))
        .close('}');
}

double
peakRssMb()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, stateDir, spansOut;
    std::uint64_t seed = 0;
    bool haveSeed = false, holdout = false;
    double seconds = 0.0;
    int traceMode = -1;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        const bool more = a + 1 < argc;
        if (arg == "--workload" && more) {
            workload = argv[++a];
        } else if (arg == "--seed" && more) {
            seed = std::stoull(argv[++a]);
            haveSeed = true;
        } else if (arg == "--holdout") {
            holdout = true;
        } else if (arg == "--seconds" && more) {
            seconds = std::stod(argv[++a]);
        } else if (arg == "--trace" && more) {
            traceMode = std::stoi(argv[++a]);
        } else if (arg == "--state-dir" && more) {
            stateDir = argv[++a];
        } else if (arg == "--spans-out" && more) {
            spansOut = argv[++a];
        } else {
            die("unknown argument '" + arg + "'");
        }
    }
    if (workload.empty() || !haveSeed || !(seconds > 0.0) ||
        (traceMode != 0 && traceMode != 1) || stateDir.empty())
        die("usage: epoch_bench --workload NAME --seed N [--holdout] "
            "--seconds S --trace 0|1 --state-dir DIR [--spans-out F]");

    // The held-out stream draws its inputs from a seed no tuning seed
    // maps to, so a claim can be checked on inputs it was not tuned on.
    const std::uint64_t inputSeed =
        holdout ? mix64(seed ^ 0x686f6c646f7574ULL) : seed;

    std::filesystem::create_directories(stateDir);
    CpuPin pin;
    Json j;
    j.open('{').key("workload").str(workload)
        .key("seed").integer(static_cast<std::int64_t>(seed))
        .key("stream").str(holdout ? "holdout" : "tune")
        .key("input_seed").str(std::to_string(inputSeed));
    writeEnvironment(j, stateDir, pin.cpu());

    Bench bench(workload, inputSeed, stateDir, pin);
    bench.writeScenario(j);
    bench.setUp(j);
    bench.prefill();
    if (traceMode == 0) {
        bench.measure(j, seconds, kMinReps);
        bench.recovery(j, nullptr, kRecoveryStates);
        j.key("peak_rss_mb").num(peakRssMb());
    } else {
        SpanLog trace;
        bench.measure(j, seconds / 2, 1);
        bench.recovery(j, &trace, 1);
        bench.traced(j, trace);
        bench.writeSpans(j, trace);
        if (!spansOut.empty()) {
            std::ofstream out(spansOut);
            for (const Span &s : trace.spans)
                out << s.name << ' ' << s.phase << ' ' << s.epoch << ' '
                    << s.t0 << ' ' << s.t1 << '\n';
            if (!out)
                die("cannot write " + spansOut);
        }
    }
    j.close('}');
    std::cout << j.text() << std::endl;
    std::filesystem::remove_all(stateDir);
    return 0;
}
