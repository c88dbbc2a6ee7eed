/**
 * @file
 * Crash-recovery equivalence for the durable online runtime.
 *
 * The contract under test is the strongest one the durability layer
 * makes: a run killed after any committed epoch and restarted from its
 * state directory produces the *same* simulation — identical job log,
 * identical metrics (modulo the recovery counters, which describe the
 * process rather than the simulation), and a byte-identical final
 * snapshot — as a run that was never interrupted. Determinism is the
 * redo log, and the journaled per-epoch digest is its proof
 * obligation: these tests also check that a tampered digest refuses to
 * replay instead of silently rewriting history.
 *
 * Process-level kill coverage (SIGKILL at the literal kill points,
 * trace-file equivalence) lives in tools/chaos_recovery.py; these
 * tests drive the same commit layout in-process so they can assert on
 * states and Status values directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc/amdahl_bidding_policy.hh"
#include "common/byte_order.hh"
#include "common/crc32.hh"
#include "eval/online.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/durability/kill_points.hh"
#include "robustness/fault_injector.hh"

namespace amdahl::eval {
namespace {

namespace fs = std::filesystem;

/** A per-test scratch directory, wiped at the start of each test. */
fs::path
freshDir()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    fs::path dir = fs::temp_directory_path() / "amdahl_recovery_test" /
                   (std::string(info->test_suite_name()) + "." +
                    info->name());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

OnlineOptions
smallScenario()
{
    OnlineOptions opts;
    opts.seed = 7707;
    opts.users = 6;
    opts.servers = 3;
    opts.epochSeconds = 60.0;
    opts.horizonSeconds = 600.0; // 10 epochs
    opts.arrivalsPerServerEpoch = 0.5;
    return opts;
}

durability::DurableStateStore
openStore(const fs::path &dir, int snapshotEvery)
{
    durability::DurabilityOptions opts;
    opts.stateDir = dir.string();
    opts.snapshotEvery = snapshotEvery;
    auto opened = durability::DurableStateStore::open(opts);
    EXPECT_TRUE(opened.ok()) << opened.status().toString();
    return opened.take();
}

/**
 * Drive the first @p epochs epochs through the store with exactly the
 * commit layout runDurable uses (digest entry + envelope-wrapped
 * state), then drop everything — the in-process stand-in for a
 * process killed after its Nth commit.
 */
void
runAndAbandonAfter(const OnlineSimulator &sim,
                   const alloc::AllocationPolicy &policy,
                   durability::DurableStateStore &store, int epochs,
                   std::uint32_t digestXor = 0)
{
    ASSERT_TRUE(store.beginFresh().isOk());
    const robustness::FaultInjector injector(
        sim.options().faults,
        static_cast<std::size_t>(sim.options().servers),
        sim.epochCount());
    OnlineRunState state = sim.initState(policy);
    for (int e = 0; e < epochs; ++e) {
        sim.runEpoch(state, policy, FractionSource::Estimated,
                     injector);
        const std::string encoded =
            encodeOnlineState(state, sim.options());
        durability::JournalEntry entry;
        entry.epoch = static_cast<std::uint64_t>(state.epoch);
        entry.eventCrc = crc32(encoded) ^ digestXor;
        durability::OnlineSnapshotEnvelope env;
        ASSERT_TRUE(store
                        .commitEpoch(entry,
                                     [&] {
                                         env.state = encoded;
                                         return encodeSnapshotEnvelope(
                                             env);
                                     })
                        .isOk());
    }
}

/** The two metrics objects describe the same simulation. */
void
expectSameSimulation(const OnlineMetrics &a, const OnlineMetrics &b)
{
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_DOUBLE_EQ(a.workCompleted, b.workCompleted);
    EXPECT_DOUBLE_EQ(a.meanCompletionSeconds, b.meanCompletionSeconds);
    EXPECT_DOUBLE_EQ(a.p95CompletionSeconds, b.p95CompletionSeconds);
    EXPECT_DOUBLE_EQ(a.meanJobsInSystem, b.meanJobsInSystem);
    EXPECT_DOUBLE_EQ(a.longRunEntitlementMape,
                     b.longRunEntitlementMape);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t k = 0; k < a.jobs.size(); ++k) {
        EXPECT_EQ(a.jobs[k].user, b.jobs[k].user);
        EXPECT_EQ(a.jobs[k].server, b.jobs[k].server);
        EXPECT_DOUBLE_EQ(a.jobs[k].remainingWork,
                         b.jobs[k].remainingWork);
        EXPECT_DOUBLE_EQ(a.jobs[k].completionSeconds,
                         b.jobs[k].completionSeconds);
    }
    EXPECT_EQ(a.occupancyHistory, b.occupancyHistory);
    EXPECT_EQ(a.speedupHistory, b.speedupHistory);
}

TEST(Recovery, EncodedStateRoundTripsByteIdentically)
{
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState state = sim.initState(ab);
    for (int e = 0; e < 4; ++e)
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);

    const std::string encoded = encodeOnlineState(state, opts);
    auto decoded = decodeOnlineState(encoded, opts, ab.name());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(encodeOnlineState(decoded.value(), opts), encoded);
    EXPECT_EQ(decoded.value().epoch, 4);
}

TEST(Recovery, DecodeRejectsScenarioPolicyAndFormatSkew)
{
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const std::string encoded =
        encodeOnlineState(sim.initState(ab), opts);

    auto wrongPolicy = decodeOnlineState(encoded, opts, "PS");
    ASSERT_FALSE(wrongPolicy.ok());
    EXPECT_EQ(wrongPolicy.status().kind(), ErrorKind::SemanticError);

    OnlineOptions reseeded = opts;
    reseeded.seed ^= 1;
    auto wrongScenario = decodeOnlineState(encoded, reseeded, ab.name());
    ASSERT_FALSE(wrongScenario.ok());
    EXPECT_EQ(wrongScenario.status().kind(), ErrorKind::SemanticError);

    auto truncated = decodeOnlineState(
        std::string_view(encoded).substr(0, encoded.size() / 2), opts,
        ab.name());
    EXPECT_FALSE(truncated.ok());

    // A state of the previous layout (version 4, whose clears followed
    // a different trajectory) is refused as version skew up front, not
    // replayed into a divergence.
    std::string older = encoded;
    storeLe32(older.data(), loadLe32(older.data()) - 1);
    ASSERT_EQ(loadLe32(older.data()), 4u);
    auto skewed = decodeOnlineState(older, opts, ab.name());
    ASSERT_FALSE(skewed.ok());
    EXPECT_EQ(skewed.status().kind(), ErrorKind::SemanticError);
    EXPECT_NE(skewed.status().toString().find("version 4"),
              std::string::npos)
        << skewed.status().toString();

    // A state whose own policy name differs from the fingerprinted one
    // (header patched to fingerprint "PS"; the state still says AB).
    std::string renamed = encoded;
    storeLe32(renamed.data() + 4, onlineStateFingerprint(opts, "PS"));
    auto misnamed = decodeOnlineState(renamed, opts, "PS");
    ASSERT_FALSE(misnamed.ok());
    EXPECT_EQ(misnamed.status().kind(), ErrorKind::SemanticError);

    // An int field (the epoch) with bits above the int range: rejected,
    // not truncated into a state that re-encodes differently.
    std::string wide = encoded;
    storeLe64(wide.data() + 8, loadLe64(wide.data() + 8) + (1ULL << 32));
    auto widened = decodeOnlineState(wide, opts, ab.name());
    ASSERT_FALSE(widened.ok());
    EXPECT_EQ(widened.status().kind(), ErrorKind::ParseError);

    // A job naming a tenant this scenario does not have.
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    OnlineRunState state = sim.initState(ab);
    while (state.jobs.empty())
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);
    std::string stranger = encodeOnlineState(state, opts);
    // version, fingerprint, epoch, RNG, budgets, job count.
    const std::size_t firstJob =
        4 + 4 + 8 + 32 + 8 + 8 * state.budgets.size() + 8;
    ASSERT_EQ(loadLe64(stranger.data() + firstJob), state.jobs[0].user);
    storeLe64(stranger.data() + firstJob, 1000);
    auto outside = decodeOnlineState(stranger, opts, ab.name());
    ASSERT_FALSE(outside.ok());
    EXPECT_EQ(outside.status().kind(), ErrorKind::SemanticError);
}

TEST(Recovery, ReplayOfTheSameEpochsIsBitIdentical)
{
    // Determinism is the redo log: two independent drives of the same
    // scenario must agree on every per-epoch digest.
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState a = sim.initState(ab);
    OnlineRunState b = sim.initState(ab);
    for (int e = 0; e < sim.epochCount(); ++e) {
        sim.runEpoch(a, ab, FractionSource::Estimated, injector);
        sim.runEpoch(b, ab, FractionSource::Estimated, injector);
        EXPECT_EQ(crc32(encodeOnlineState(a, opts)),
                  crc32(encodeOnlineState(b, opts)))
            << "divergence at epoch " << e + 1;
    }
}

TEST(Recovery, DurableFreshRunMatchesThePlainRun)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const OnlineMetrics plain = sim.run(ab, FractionSource::Estimated);

    auto store = openStore(freshDir(), 4);
    auto durable =
        sim.runDurable(ab, FractionSource::Estimated, store);
    ASSERT_TRUE(durable.ok()) << durable.status().toString();
    expectSameSimulation(durable.value(), plain);
    EXPECT_FALSE(durable.value().recovered);
    EXPECT_EQ(durable.value().journalCommits,
              static_cast<std::uint64_t>(sim.epochCount()));
    EXPECT_GT(durable.value().snapshotsWritten, 0u);
}

TEST(Recovery, KillAfterAnyCommitRecoversTheUninterruptedOutcome)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const OnlineMetrics plain = sim.run(ab, FractionSource::Estimated);

    // An uninterrupted durable run pins the expected final snapshot.
    const fs::path goldenDir = freshDir() / "golden";
    auto goldenStore = openStore(goldenDir, 3);
    ASSERT_TRUE(
        sim.runDurable(ab, FractionSource::Estimated, goldenStore)
            .ok());
    auto goldenSnapshot = durability::readFileBytes(
        durability::SnapshotStore(goldenDir.string(), 2)
            .pathFor(static_cast<std::uint64_t>(sim.epochCount())));
    ASSERT_TRUE(goldenSnapshot.ok());

    for (int killAfter = 1; killAfter < sim.epochCount(); ++killAfter) {
        SCOPED_TRACE("killed after epoch " + std::to_string(killAfter));
        const fs::path dir =
            goldenDir.parent_path() /
            ("kill" + std::to_string(killAfter));
        fs::create_directories(dir);
        {
            auto store = openStore(dir, 3);
            runAndAbandonAfter(sim, ab, store, killAfter);
        }

        auto store = openStore(dir, 3);
        const durability::RecoveredState rec = store.recover();
        ASSERT_EQ(rec.frontierEpoch(),
                  static_cast<std::uint64_t>(killAfter));
        auto resumed = sim.runDurable(ab, FractionSource::Estimated,
                                      store, &rec);
        ASSERT_TRUE(resumed.ok()) << resumed.status().toString();

        expectSameSimulation(resumed.value(), plain);
        EXPECT_TRUE(resumed.value().recovered);
        EXPECT_EQ(resumed.value().recoveryFrontierEpoch,
                  static_cast<std::uint64_t>(killAfter));
        EXPECT_EQ(resumed.value().recoveryReplayedEpochs,
                  static_cast<int>(rec.entries.size()));

        // The recovery-equivalence oracle, at its strongest: the final
        // snapshot bytes are identical to the uninterrupted run's.
        auto snapshot = durability::readFileBytes(
            durability::SnapshotStore(dir.string(), 2)
                .pathFor(static_cast<std::uint64_t>(sim.epochCount())));
        ASSERT_TRUE(snapshot.ok());
        EXPECT_EQ(snapshot.value(), goldenSnapshot.value());
    }
}

TEST(Recovery, TamperedJournalDigestRefusesToReplay)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path dir = freshDir();
    {
        auto store = openStore(dir, 0); // no snapshot: all journaled
        runAndAbandonAfter(sim, ab, store, 3,
                           /*digestXor=*/0x1u); // corrupt every digest
    }
    auto store = openStore(dir, 0);
    const durability::RecoveredState rec = store.recover();
    ASSERT_FALSE(rec.entries.empty());
    auto resumed =
        sim.runDurable(ab, FractionSource::Estimated, store, &rec);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().kind(), ErrorKind::SemanticError);
    EXPECT_NE(resumed.status().message().find("replay divergence"),
              std::string::npos);
}

TEST(Recovery, CompletedRunResumesWithZeroReplay)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path dir = freshDir();
    auto store = openStore(dir, 4);
    auto first = sim.runDurable(ab, FractionSource::Estimated, store);
    ASSERT_TRUE(first.ok()) << first.status().toString();

    auto reopened = openStore(dir, 4);
    const durability::RecoveredState rec = reopened.recover();
    EXPECT_EQ(rec.frontierEpoch(),
              static_cast<std::uint64_t>(sim.epochCount()));
    auto again = sim.runDurable(ab, FractionSource::Estimated,
                                reopened, &rec);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    expectSameSimulation(again.value(), first.value());
    EXPECT_TRUE(again.value().recovered);
    EXPECT_EQ(again.value().recoveryReplayedEpochs, 0);
}

OnlineOptions
deltaScenario()
{
    OnlineOptions opts = smallScenario();
    opts.delta.reuseKernel = true;
    return opts;
}

TEST(Recovery, DeltaStateRoundTripsAndResumesIdentically)
{
    // Delta re-clearing keeps no equilibrium in the run state: every
    // clear starts from the even split, and the kernel cache is never
    // serialized. A decoded mid-run state must
    // re-encode to the same bytes and resume bit-identically.
    CharacterizationCache cache;
    const OnlineOptions opts = deltaScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState state = sim.initState(ab);
    for (int e = 0; e < 4; ++e)
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);
    ASSERT_TRUE(state.kernelCache);

    const std::string encoded = encodeOnlineState(state, opts);
    auto decoded = decodeOnlineState(encoded, opts, ab.name());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(encodeOnlineState(decoded.value(), opts), encoded);

    // Resuming the decoded state (cold kernel cache) must match the
    // uninterrupted drive.
    OnlineRunState resumed = decoded.take();
    EXPECT_FALSE(resumed.kernelCache);
    sim.runEpoch(state, ab, FractionSource::Estimated, injector);
    sim.runEpoch(resumed, ab, FractionSource::Estimated, injector);
    EXPECT_EQ(crc32(encodeOnlineState(resumed, opts)),
              crc32(encodeOnlineState(state, opts)));
}

TEST(Recovery, KillMidRunRecoversTheDeltaOutcome)
{
    // The crash-recovery oracle with delta re-clearing on: accelerated
    // clears are a pure function of each epoch's market, so the
    // recovered run must land on the uninterrupted outcome exactly.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, deltaScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const OnlineMetrics plain = sim.run(ab, FractionSource::Estimated);

    const fs::path dir = freshDir();
    {
        auto store = openStore(dir, 3);
        runAndAbandonAfter(sim, ab, store, 5);
    }
    auto store = openStore(dir, 3);
    const durability::RecoveredState rec = store.recover();
    ASSERT_EQ(rec.frontierEpoch(), 5u);
    auto resumed =
        sim.runDurable(ab, FractionSource::Estimated, store, &rec);
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    expectSameSimulation(resumed.value(), plain);
    EXPECT_TRUE(resumed.value().recovered);
}

// ---------------------------------------------------------------------
// The incremental state digest (OnlineStateDigest) must equal
// crc32(encodeOnlineState(...)) after every epoch: the journal's
// digests are unchanged bytes on disk.
// ---------------------------------------------------------------------

/** Crashes, rollbacks, re-placement and a backed-up admission queue. */
OnlineOptions
faultedScenario()
{
    OnlineOptions opts;
    opts.seed = 4242;
    opts.users = 10;
    opts.servers = 4;
    opts.coresPerServer = 8;
    opts.epochSeconds = 60.0;
    opts.horizonSeconds = 60.0 * 40;
    opts.arrivalsPerServerEpoch = 2.0;
    opts.workScaleMin = 0.05;
    opts.workScaleMax = 0.3;
    opts.faults.enabled = true;
    opts.faults.crashRatePerServerEpoch = 0.1;
    opts.faults.downEpochs = 2;
    opts.faults.checkpointEpochs = 3;
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 2.0;
    opts.admission.maxQueueLength = 6;
    return opts;
}

/** Tens of jobs in flight over a job log of thousands. */
OnlineOptions
longLogScenario()
{
    OnlineOptions opts;
    opts.seed = 31337;
    opts.users = 64;
    opts.servers = 8;
    opts.arrivalsPerServerEpoch = 5.0;
    opts.workScaleMin = 0.01;
    opts.workScaleMax = 0.04;
    opts.horizonSeconds = opts.epochSeconds * 150;
    return opts;
}

/** @return The number of leading finished jobs (the frozen prefix). */
std::size_t
frozenPrefix(const OnlineRunState &state)
{
    std::size_t k = 0;
    while (k < state.jobs.size() && state.jobs[k].done())
        ++k;
    return k;
}

/**
 * Run @p state to the horizon, checking @p digest against the full
 * encoding after every epoch. @return the largest frozen prefix seen.
 */
std::size_t
expectDigestTracksEncoding(const OnlineSimulator &sim,
                           const alloc::AllocationPolicy &policy,
                           OnlineRunState &state,
                           OnlineStateDigest &digest)
{
    const OnlineOptions &opts = sim.options();
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    std::size_t frozen = 0;
    while (state.epoch < sim.epochCount()) {
        sim.runEpoch(state, policy, FractionSource::Estimated, injector);
        EXPECT_EQ(digest.update(state, opts),
                  crc32(encodeOnlineState(state, opts)))
            << "digest diverged at epoch " << state.epoch;
        frozen = std::max(frozen, frozenPrefix(state));
    }
    return frozen;
}

TEST(StateDigest, MatchesFullEncodingThroughFaultsAndBackpressure)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, faultedScenario());
    const alloc::AmdahlBiddingPolicy ab;
    OnlineRunState state = sim.initState(ab);
    OnlineStateDigest digest;

    // Track the queue while running, so the scenario is shown to reach
    // every path the digest must survive.
    const robustness::FaultInjector injector(
        sim.options().faults,
        static_cast<std::size_t>(sim.options().servers),
        sim.epochCount());
    bool queued = false;
    std::size_t frozen = 0;
    while (state.epoch < sim.epochCount()) {
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);
        ASSERT_EQ(digest.update(state, sim.options()),
                  crc32(encodeOnlineState(state, sim.options())))
            << "digest diverged at epoch " << state.epoch;
        queued = queued || !state.waitQueue.empty();
        frozen = std::max(frozen, frozenPrefix(state));
    }
    EXPECT_GT(state.metrics.crashEvents, 0);
    EXPECT_GT(state.metrics.workLostSeconds, 0.0);
    EXPECT_GT(state.metrics.replacements, 0);
    EXPECT_TRUE(queued);
    EXPECT_GT(frozen, 0u);
    EXPECT_LT(frozen, state.jobs.size());
}

TEST(StateDigest, ColdDigestOverADecodedSnapshotMatches)
{
    // A digest that first sees a state decoded from a mid-run snapshot
    // folds the whole frozen prefix on its first call.
    CharacterizationCache cache;
    const OnlineOptions opts = longLogScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    OnlineRunState state = sim.initState(ab);
    while (state.epoch < 60)
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);
    ASSERT_GT(frozenPrefix(state), 1024u); // more than one seal batch

    auto decoded = decodeOnlineState(encodeOnlineState(state, opts),
                                     opts, ab.name());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    OnlineRunState resumed = decoded.take();
    OnlineStateDigest cold;
    EXPECT_EQ(cold.update(resumed, opts),
              crc32(encodeOnlineState(state, opts)));
    expectDigestTracksEncoding(sim, ab, resumed, cold);
}

TEST(StateDigest, MatchesFullEncodingOverALongJobLog)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, longLogScenario());
    const alloc::AmdahlBiddingPolicy ab;
    OnlineRunState state = sim.initState(ab);
    OnlineStateDigest digest;
    const std::size_t frozen =
        expectDigestTracksEncoding(sim, ab, state, digest);
    // Most of the log is frozen: the digest re-reads only the rest.
    EXPECT_GT(state.jobs.size(), 2000u);
    EXPECT_GT(frozen, state.jobs.size() * 9 / 10);
}

TEST(StateDigest, RunDurableJournalsTheFullEncodingCrcs)
{
    // runDurable's journaled digests, read back from disk, equal the
    // CRCs of the full encodings of an in-memory run. A child process
    // dies right after committing the last epoch, before finishRun
    // truncates the journal; with no snapshot cadence, the journal
    // then holds every epoch's entry.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, faultedScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const int epochs = sim.epochCount();

    std::vector<std::uint32_t> expected;
    {
        const robustness::FaultInjector injector(
            sim.options().faults,
            static_cast<std::size_t>(sim.options().servers), epochs);
        OnlineRunState state = sim.initState(ab);
        while (state.epoch < epochs) {
            sim.runEpoch(state, ab, FractionSource::Estimated, injector);
            expected.push_back(
                crc32(encodeOnlineState(state, sim.options())));
        }
    }

    const fs::path dir = freshDir();
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            const std::string spec =
                "epoch.post_commit:" + std::to_string(epochs);
            if (!durability::armKillPoint(spec).isOk())
                std::_Exit(1);
            auto store = openStore(dir, 0);
            (void)sim.runDurable(ab, FractionSource::Estimated, store);
            std::_Exit(2);
        },
        ::testing::ExitedWithCode(durability::kKillExitCode), "");

    auto store = openStore(dir, 0);
    const durability::RecoveredState rec = store.recover();
    ASSERT_EQ(rec.entries.size(), expected.size());
    for (std::size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(rec.entries[e].epoch, e + 1);
        EXPECT_EQ(rec.entries[e].eventCrc, expected[e])
            << "journaled digest of epoch " << e + 1;
    }
}

} // namespace
} // namespace amdahl::eval
