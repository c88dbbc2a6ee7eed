/**
 * @file
 * Unit tests for the degraded-mode fallback ladder.
 */

#include <gtest/gtest.h>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/fallback_policy.hh"
#include "alloc/proportional_share.hh"
#include "common/logging.hh"
#include "core/bidding.hh"
#include "net/options.hh"
#include "net/session.hh"

namespace amdahl::alloc {
namespace {

core::FisherMarket
smallMarket()
{
    core::FisherMarket market({24.0, 24.0});
    market.addUser({"a", 3.0, {{0, 0.95, 1.0}, {1, 0.60, 1.0}}});
    market.addUser({"b", 1.0, {{0, 0.85, 1.0}}});
    market.addUser({"c", 2.0, {{1, 0.99, 1.0}, {0, 0.30, 1.0}}});
    return market;
}

TEST(Fallback, PrimaryServesConvergingMarkets)
{
    const auto market = smallMarket();
    const FallbackPolicy fb;
    const auto result = fb.allocate(market);
    EXPECT_EQ(result.mode, ServeMode::Primary);
    EXPECT_TRUE(result.outcome.converged);
    EXPECT_EQ(result.policyName, "AB+FB");

    // Identical to the unwrapped policy under the same options.
    const AmdahlBiddingPolicy ab;
    const auto plain = ab.allocate(market);
    ASSERT_EQ(result.cores.size(), plain.cores.size());
    for (std::size_t i = 0; i < result.cores.size(); ++i)
        EXPECT_EQ(result.cores[i], plain.cores[i]);
}

TEST(Fallback, DampedRetryRescuesTightIterationBudget)
{
    const auto market = smallMarket();
    core::BiddingOptions primary;
    primary.maxIterations = 2;
    primary.priceTolerance = 1e-12;
    FallbackOptions ladder;
    ladder.retryMaxIterations = 20000;
    const FallbackPolicy fb(primary, ladder);
    const auto result = fb.allocate(market);
    EXPECT_EQ(result.mode, ServeMode::DampedRetry);
    EXPECT_TRUE(result.outcome.converged);
    // Iterations accumulate across rungs.
    EXPECT_GT(result.outcome.iterations, 2);
}

TEST(Fallback, ProportionalFallbackWhenBothMarketAttemptsFail)
{
    const auto market = smallMarket();
    core::BiddingOptions primary;
    primary.maxIterations = 2;
    primary.priceTolerance = 1e-15;
    FallbackOptions ladder;
    ladder.retryMaxIterations = 3;
    const FallbackPolicy fb(primary, ladder);
    const auto result = fb.allocate(market);
    EXPECT_EQ(result.mode, ServeMode::ProportionalFallback);
    EXPECT_FALSE(result.outcome.converged);
    EXPECT_EQ(result.outcome.iterations, 5);
    EXPECT_EQ(result.policyName, "AB+FB");

    // The emergency allocation is exactly proportional share by
    // entitlement: feasible and budget-respecting.
    const auto ps = ProportionalShare().allocate(market);
    ASSERT_EQ(result.cores.size(), ps.cores.size());
    for (std::size_t i = 0; i < result.cores.size(); ++i)
        EXPECT_EQ(result.cores[i], ps.cores[i]);
    std::vector<int> perServer(2, 0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        for (std::size_t k = 0; k < market.user(i).jobs.size(); ++k) {
            perServer[market.user(i).jobs[k].server] +=
                result.cores[i][k];
        }
    }
    EXPECT_LE(perServer[0], 24);
    EXPECT_LE(perServer[1], 24);
}

TEST(Fallback, DisabledLadderServesPrimaryVerbatim)
{
    const auto market = smallMarket();
    core::BiddingOptions primary;
    primary.maxIterations = 2;
    primary.priceTolerance = 1e-15;
    FallbackOptions ladder;
    ladder.enabled = false;
    const FallbackPolicy fb(primary, ladder);
    const auto result = fb.allocate(market);
    // Pre-ladder behavior: the unconverged primary result, with
    // non-convergence still visible to the caller.
    EXPECT_EQ(result.mode, ServeMode::Primary);
    EXPECT_FALSE(result.outcome.converged);
    EXPECT_EQ(result.outcome.iterations, 2);
}

TEST(Fallback, TotalMessageLossFallsThroughToProportional)
{
    const auto market = smallMarket();
    core::BiddingOptions primary;
    primary.maxIterations = 200;
    FallbackOptions ladder;
    ladder.retryMaxIterations = 200;
    const FallbackPolicy fb(primary, ladder);
    core::BidTransportFaults transport;
    transport.lossRate = 1.0; // nothing ever reaches the coordinator
    transport.seed = 99;
    const auto result = fb.allocate(market, transport);
    EXPECT_EQ(result.mode, ServeMode::ProportionalFallback);
    EXPECT_FALSE(result.outcome.converged);
}

TEST(Fallback, DampedRetryRunsPlainUnderAnAcceleratedPrimary)
{
    // The primary attempt clears accelerated by default; the damped
    // retry is the conservative rung and must be plain proportional
    // response from the primary's bids.
    const auto market = smallMarket();
    core::BiddingOptions primary = defaultClearingOptions();
    primary.maxIterations = 2;
    primary.priceTolerance = 1e-12;
    FallbackOptions ladder;
    ladder.retryMaxIterations = 20000;
    const auto result = FallbackPolicy(primary, ladder).allocate(market);
    ASSERT_EQ(result.mode, ServeMode::DampedRetry);

    const auto attempt = core::solveAmdahlBidding(market, primary);
    ASSERT_FALSE(attempt.converged);
    core::BiddingOptions retry = primary;
    retry.accel.enabled = false;
    retry.damping = ladder.retryDampingFactor;
    retry.maxIterations = ladder.retryMaxIterations;
    retry.initialBids = attempt.bids;
    const auto plain = core::solveAmdahlBidding(market, retry);
    EXPECT_EQ(result.outcome.bids, plain.bids);
    EXPECT_EQ(result.outcome.prices, plain.prices);
    EXPECT_EQ(result.outcome.iterations,
              attempt.iterations + plain.iterations);
}

/** The two results are the same clear, value for value. */
void
expectSameClear(const AllocationResult &a, const AllocationResult &b)
{
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.outcome.prices, b.outcome.prices);
    EXPECT_EQ(a.outcome.bids, b.outcome.bids);
    EXPECT_EQ(a.outcome.allocation, b.outcome.allocation);
    EXPECT_EQ(a.outcome.iterations, b.outcome.iterations);
    EXPECT_EQ(a.outcome.converged, b.outcome.converged);
}

TEST(Acceleration, PoliciesClearPlainWhereItCannotApply)
{
    // The market policies accelerate by default, but the accelerator
    // serves only in-process Synchronous clears over a sound
    // transport. Under Gauss-Seidel, bid loss and sharded clearing the
    // default policies must clear exactly as with acceleration off,
    // through every allocate() overload, and never reach its fatals.
    const auto market = smallMarket();
    core::BiddingOptions fast = defaultClearingOptions();
    core::BiddingOptions slow = fast;
    slow.accel.enabled = false;
    ASSERT_TRUE(fast.accel.enabled);

    // Gauss-Seidel.
    fast.schedule = slow.schedule = core::UpdateSchedule::GaussSeidel;
    expectSameClear(AmdahlBiddingPolicy(fast).allocate(market),
                    AmdahlBiddingPolicy(slow).allocate(market));
    expectSameClear(FallbackPolicy(fast).allocate(market),
                    FallbackPolicy(slow).allocate(market));
    fast.schedule = slow.schedule = core::UpdateSchedule::Synchronous;

    // A lossy transport, through the faults and the context overloads.
    core::BidTransportFaults lossy;
    lossy.lossRate = 0.3;
    lossy.seed = 0x1055;
    core::ClearingContext lossyCtx;
    lossyCtx.transport = lossy;
    expectSameClear(AmdahlBiddingPolicy(fast).allocate(market, lossy),
                    AmdahlBiddingPolicy(slow).allocate(market, lossy));
    expectSameClear(FallbackPolicy(fast).allocate(market, lossy),
                    FallbackPolicy(slow).allocate(market, lossy));
    expectSameClear(AmdahlBiddingPolicy(fast).allocate(market, lossyCtx),
                    AmdahlBiddingPolicy(slow).allocate(market, lossyCtx));
    expectSameClear(FallbackPolicy(fast).allocate(market, lossyCtx),
                    FallbackPolicy(slow).allocate(market, lossyCtx));

    // Sharded clearing, fault-free and over a lossy network (the
    // ladder is the policy that clears sharded).
    for (const double loss : {0.0, 0.1}) {
        net::ShardedOptions sharded;
        sharded.shards = 2;
        sharded.faults.lossRate = loss;
        sharded.faults.seed = 0x5a4d;
        net::NetSession fastSession, slowSession;
        core::ClearingContext fastCtx, slowCtx;
        fastCtx.sharding = slowCtx.sharding = &sharded;
        fastCtx.session = &fastSession;
        slowCtx.session = &slowSession;
        expectSameClear(FallbackPolicy(fast).allocate(market, fastCtx),
                        FallbackPolicy(slow).allocate(market, slowCtx));
    }
}

TEST(Fallback, ServeModeNames)
{
    EXPECT_STREQ(toString(ServeMode::Primary), "primary");
    EXPECT_STREQ(toString(ServeMode::DampedRetry), "damped-retry");
    EXPECT_STREQ(toString(ServeMode::ProportionalFallback),
                 "proportional-fallback");
}

TEST(Fallback, ValidatesOptions)
{
    FallbackOptions bad;
    bad.retryDampingFactor = 0.0;
    EXPECT_THROW(FallbackPolicy({}, bad), FatalError);
    bad.retryDampingFactor = 1.0;
    EXPECT_THROW(FallbackPolicy({}, bad), FatalError);
    bad = FallbackOptions{};
    bad.retryMaxIterations = -1;
    EXPECT_THROW(FallbackPolicy({}, bad), FatalError);
}

} // namespace
} // namespace amdahl::alloc
