/**
 * @file
 * The bid-update kernel contract: scalar/SIMD bit-identity, grain and
 * kernel-mode invariance, Anderson acceleration, and the kernel
 * cache.
 *
 * The load-bearing claims (DESIGN.md §16), each pinned here with
 * exact `==` where the contract is bitwise:
 *
 *  - The default build's solve is byte-identical at every combination
 *    of thread count, update grain, and kernel mode available to it.
 *  - The AVX2 kernel (when compiled in and supported) reproduces the
 *    scalar kernel bit for bit, both through a full solve and through
 *    a direct kernel-level update, damped and undamped, on ragged
 *    rows and degenerate inputs.
 *  - The kernel cache is a pure structural cache: solving through a
 *    warmed (even cross-market patched) cache returns the same bytes
 *    as solving fresh.
 *  - Anderson acceleration converges in fewer rounds to the same
 *    equilibrium (within tolerance — acceleration legitimately
 *    changes low-order bits), is self-reproducing, and follows a
 *    pinned trajectory.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/bidding_kernel.hh"
#include "core/bidding_simd.hh"
#include "core/market.hh"
#include "exec/parallelism.hh"

namespace amdahl::core {
namespace {

/** Scoped thread-count override; restores the previous setting. */
class ThreadGuard
{
  public:
    explicit ThreadGuard(int n) : previous_(exec::setThreadCount(n)) {}
    ~ThreadGuard() { exec::setThreadCount(previous_); }
    ThreadGuard(const ThreadGuard &) = delete;
    ThreadGuard &operator=(const ThreadGuard &) = delete;

  private:
    int previous_;
};

/** Scoped bid-update grain override; restores the default. */
class GrainGuard
{
  public:
    explicit GrainGuard(std::size_t n)
        : previous_(exec::setBidUpdateGrain(n))
    {
    }
    ~GrainGuard() { exec::setBidUpdateGrain(previous_); }
    GrainGuard(const GrainGuard &) = delete;
    GrainGuard &operator=(const GrainGuard &) = delete;

  private:
    std::size_t previous_;
};

/** Scoped kernel-mode override; restores the previous setting. */
class KernelGuard
{
  public:
    explicit KernelGuard(BidKernelMode mode)
        : previous_(setBidKernelMode(mode))
    {
    }
    ~KernelGuard() { setBidKernelMode(previous_); }
    KernelGuard(const KernelGuard &) = delete;
    KernelGuard &operator=(const KernelGuard &) = delete;

  private:
    BidKernelMode previous_;
};

/**
 * A market whose user fan-out spans several chunks, with ragged rows
 * (1-4 jobs) and mixed parallel fractions. `mutateFirst` perturbs the
 * values (budgets, weights, fractions) of the first N users while
 * keeping the structure — the bench's churn model, used here to
 * exercise the kernel cache's patch path.
 */
FisherMarket
testMarket(int users = 96, int servers = 12,
           std::uint64_t seed = 0x51b7d, int mutateFirst = 0)
{
    Rng rng(seed);
    std::vector<double> capacities(static_cast<std::size_t>(servers),
                                   16.0);
    FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 2.0);
        if (i < mutateFirst)
            user.budget *= 1.5;
        const int jobs = 1 + static_cast<int>(rng.uniformInt(0, 3));
        for (int k = 0; k < jobs; ++k) {
            JobSpec job;
            job.server = static_cast<std::size_t>(
                rng.uniformInt(0, servers - 1));
            job.parallelFraction = rng.uniform(0.05, 0.999);
            job.weight = rng.uniform(0.5, 2.0);
            if (i < mutateFirst)
                job.weight *= 0.8;
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

/** Exact (bitwise) equality of two outcomes. */
void
expectIdentical(const BiddingResult &a, const BiddingResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
    ASSERT_EQ(a.prices.size(), b.prices.size()) << what;
    for (std::size_t j = 0; j < a.prices.size(); ++j)
        ASSERT_EQ(a.prices[j], b.prices[j]) << what << ": price " << j;
    ASSERT_EQ(a.bids.size(), b.bids.size()) << what;
    for (std::size_t i = 0; i < a.bids.size(); ++i) {
        ASSERT_EQ(a.bids[i].size(), b.bids[i].size()) << what;
        for (std::size_t k = 0; k < a.bids[i].size(); ++k) {
            ASSERT_EQ(a.bids[i][k], b.bids[i][k])
                << what << ": bid (" << i << "," << k << ")";
            ASSERT_EQ(a.allocation[i][k], b.allocation[i][k])
                << what << ": allocation (" << i << "," << k << ")";
        }
    }
}

/** Max relative price disagreement between two outcomes. */
double
priceDisagreement(const BiddingResult &a, const BiddingResult &b)
{
    double worst = 0.0;
    for (std::size_t j = 0; j < a.prices.size(); ++j) {
        const double scale = std::max(a.prices[j], 1e-12);
        worst = std::max(worst,
                         std::abs(a.prices[j] - b.prices[j]) / scale);
    }
    return worst;
}

bool
simdAvailable()
{
    return kSimdKernelCompiled && simdKernelSupported();
}

// ---------------------------------------------------------------------
// Kernel-mode plumbing.

TEST(BidKernelMode, ParsesTheCliVocabulary)
{
    EXPECT_EQ(parseBidKernelMode("auto"), BidKernelMode::Auto);
    EXPECT_EQ(parseBidKernelMode("scalar"), BidKernelMode::Scalar);
    EXPECT_THROW(parseBidKernelMode("sse9"), FatalError);
    if (simdAvailable())
        EXPECT_EQ(parseBidKernelMode("simd"), BidKernelMode::Simd);
}

TEST(BidKernelMode, ResolvedModeIsNeverAuto)
{
    EXPECT_NE(bidKernelMode(), BidKernelMode::Auto);
}

TEST(BidKernelMode, SelectingUnavailableSimdIsFatal)
{
    if (simdAvailable())
        GTEST_SKIP() << "SIMD kernel available on this build/host";
    EXPECT_THROW(setBidKernelMode(BidKernelMode::Simd), FatalError);
}

// ---------------------------------------------------------------------
// Byte-identity across performance knobs.

TEST(BidKernelIdentity, SolveIsGrainAndThreadIndependent)
{
    const auto market = testMarket();
    BiddingOptions opts;
    const auto reference = solveAmdahlBidding(market, opts);
    EXPECT_TRUE(reference.converged);

    for (const int threads : {1, 4}) {
        for (const std::size_t grain : {8u, 32u, 128u, 512u}) {
            ThreadGuard t(threads);
            GrainGuard g(grain);
            expectIdentical(
                solveAmdahlBidding(market, opts), reference,
                "threads=" + std::to_string(threads) +
                    " grain=" + std::to_string(grain));
        }
    }
}

TEST(BidKernelIdentity, SimdSolveMatchesScalarBitForBit)
{
    if (!simdAvailable())
        GTEST_SKIP() << "SIMD kernel not compiled in or no AVX2";
    const auto market = testMarket(192, 16);
    BiddingOptions opts;

    BiddingResult scalar;
    {
        KernelGuard mode(BidKernelMode::Scalar);
        scalar = solveAmdahlBidding(market, opts);
    }
    EXPECT_TRUE(scalar.converged);
    {
        KernelGuard mode(BidKernelMode::Simd);
        expectIdentical(solveAmdahlBidding(market, opts), scalar,
                        "simd full solve");
        for (const int threads : {1, 4}) {
            for (const std::size_t grain : {8u, 32u, 512u}) {
                ThreadGuard t(threads);
                GrainGuard g(grain);
                expectIdentical(
                    solveAmdahlBidding(market, opts), scalar,
                    "simd threads=" + std::to_string(threads) +
                        " grain=" + std::to_string(grain));
            }
        }
    }
}

TEST(BidKernelIdentity, SimdKernelUpdateMatchesScalarDirectly)
{
    if (!simdAvailable())
        GTEST_SKIP() << "SIMD kernel not compiled in or no AVX2";
    // Kernel-level comparison, no solver in the loop: same built
    // kernel, same posted prices, scalar vs SIMD update of every
    // chunk shape the fan-out can produce — including rows longer
    // than one vector, scalar tails, and a damped blend.
    const auto market = testMarket(67, 9, 0xbeef);
    for (const double damping : {1.0, 0.7}) {
        auto a = detail::buildKernel(market);
        BiddingOptions opts;
        JobMatrix seed;
        detail::initializeBids(market, opts, seed);
        detail::flattenBids(seed, a);
        std::vector<double> posted(a.serverCount);
        detail::gatherPrices(a, posted);
        auto b = a;

        for (int round = 0; round < 3; ++round) {
            for (std::size_t u = 0; u < a.userCount; u += 5) {
                const std::size_t hi =
                    std::min(a.userCount, u + 5);
                for (std::size_t i = u; i < hi; ++i)
                    detail::updateOneUser(a, i, posted, damping);
                detail::updateUsersRangeSimd(b, u, hi, posted,
                                             damping);
            }
            ASSERT_EQ(a.bids, b.bids)
                << "damping=" << damping << " round=" << round;
            detail::gatherPrices(a, posted);
        }
    }
}

// ---------------------------------------------------------------------
// Kernel cache: a pure structural cache, bitwise invisible.

TEST(KernelCache, RepeatSolvesThroughTheCacheAreIdentical)
{
    const auto market = testMarket();
    BiddingOptions plain;
    const auto fresh = solveAmdahlBidding(market, plain);

    KernelCache cache;
    BiddingOptions cached = plain;
    cached.kernelCache = &cache;
    expectIdentical(solveAmdahlBidding(market, cached), fresh,
                    "first solve through cache");
    EXPECT_EQ(cache.rebuilds, 1u);
    expectIdentical(solveAmdahlBidding(market, cached), fresh,
                    "second solve through cache");
    EXPECT_EQ(cache.rebuilds, 1u);
    EXPECT_GE(cache.reuses, 1u);
}

TEST(KernelCache, PatchedReuseMatchesAFreshBuild)
{
    // Same structure, different budgets/weights: the cache patches
    // the changed user rows instead of rebuilding, and the result
    // must equal a cache-free solve of the mutated market.
    const auto market = testMarket();
    KernelCache cache;
    BiddingOptions cached;
    cached.kernelCache = &cache;
    (void)solveAmdahlBidding(market, cached);

    const auto mutated = testMarket(96, 12, 0x51b7d, 12);
    const auto fresh = solveAmdahlBidding(mutated, BiddingOptions{});
    expectIdentical(solveAmdahlBidding(mutated, cached), fresh,
                    "patched cache vs fresh");
    EXPECT_EQ(cache.rebuilds, 1u);
    EXPECT_GT(cache.patchedUsers, 0u);
}

TEST(KernelCache, StructuralChangeRebuildsAndStaysCorrect)
{
    KernelCache cache;
    BiddingOptions cached;
    cached.kernelCache = &cache;
    (void)solveAmdahlBidding(testMarket(96, 12), cached);

    const auto other = testMarket(64, 8, 0x77);
    const auto fresh = solveAmdahlBidding(other, BiddingOptions{});
    expectIdentical(solveAmdahlBidding(other, cached), fresh,
                    "rebuilt cache vs fresh");
    EXPECT_EQ(cache.rebuilds, 2u);
}

// ---------------------------------------------------------------------
// Anderson acceleration.

BiddingOptions
accelOptions()
{
    BiddingOptions opts;
    opts.priceTolerance = 1e-7;
    opts.maxIterations = 5000;
    opts.accel.enabled = true;
    return opts;
}

TEST(Acceleration, ConvergesInFewerRoundsToTheSameEquilibrium)
{
    const auto market = testMarket(256, 6);
    BiddingOptions plain;
    plain.priceTolerance = 1e-7;
    plain.maxIterations = 5000;
    const auto slow = solveAmdahlBidding(market, plain);
    ASSERT_TRUE(slow.converged);

    const auto fast = solveAmdahlBidding(market, accelOptions());
    ASSERT_TRUE(fast.converged);
    EXPECT_LT(fast.iterations, slow.iterations / 2);
    EXPECT_GT(fast.accelAccepted, 0);
    EXPECT_LT(priceDisagreement(fast, slow), 1e-4);
}

TEST(Acceleration, IsSelfReproducing)
{
    const auto market = testMarket(128, 6);
    const auto first = solveAmdahlBidding(market, accelOptions());
    const auto second = solveAmdahlBidding(market, accelOptions());
    expectIdentical(second, first, "accel repeat");
    EXPECT_EQ(first.accelAccepted, second.accelAccepted);
    EXPECT_EQ(first.accelRejected, second.accelRejected);
}

TEST(Acceleration, IsThreadAndGrainIndependent)
{
    const auto market = testMarket(128, 6);
    const auto reference = solveAmdahlBidding(market, accelOptions());
    for (const int threads : {1, 4}) {
        ThreadGuard t(threads);
        GrainGuard g(16);
        expectIdentical(solveAmdahlBidding(market, accelOptions()),
                        reference,
                        "accel threads=" + std::to_string(threads));
    }
}

/** CRC of an accelerated solve's prices, bids, and round tallies. */
std::uint32_t
accelDigest(const FisherMarket &market, int depth)
{
    BiddingOptions opts = accelOptions();
    opts.accel.depth = depth;
    const auto result = solveAmdahlBidding(market, opts);
    Crc32 digest;
    digest.updateU32(static_cast<std::uint32_t>(result.iterations));
    digest.updateU32(static_cast<std::uint32_t>(result.accelAccepted));
    digest.updateU32(static_cast<std::uint32_t>(result.accelRejected));
    for (const double p : result.prices)
        digest.updateF64(p);
    for (const auto &row : result.bids) {
        for (const double b : row)
            digest.updateF64(b);
    }
    return digest.value();
}

TEST(Acceleration, TrajectoryIsPinned)
{
    // The accelerated iterate path is not bit-identical to plain PRD,
    // but it is a fixed function of the market: the history ring, the
    // fused residual/Gram pass and the mix must reproduce these exact
    // bytes (shallow and deep windows, wraps and rejections included).
    const auto small = testMarket(256, 6);
    const auto wide = testMarket(640, 40, 0xacce1);
    EXPECT_EQ(accelDigest(small, 1), 828794605u);
    EXPECT_EQ(accelDigest(small, 3), 2796705339u);
    EXPECT_EQ(accelDigest(wide, 3), 2426759271u);
    EXPECT_EQ(accelDigest(wide, 8), 1003430753u);
}

TEST(Acceleration, OffPathIsUntouched)
{
    // accel.enabled=false must be byte-identical to a default-options
    // solve: the feature off is indistinguishable from the feature
    // not existing.
    const auto market = testMarket();
    BiddingOptions off;
    off.accel.depth = -3; // Ignored (not even validated) while disabled.
    expectIdentical(solveAmdahlBidding(market, off),
                    solveAmdahlBidding(market, BiddingOptions{}),
                    "accel disabled");
}

TEST(Acceleration, ValidatesItsOptions)
{
    const auto market = testMarket(8, 2);
    auto bad = accelOptions();
    bad.accel.depth = 0;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = accelOptions();
    bad.accel.depth = 9;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = accelOptions();
    bad.accel.ridge = -1.0;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = accelOptions();
    bad.accel.maxMixWeight = 0.0;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = accelOptions();
    bad.schedule = UpdateSchedule::GaussSeidel;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
}

} // namespace
} // namespace amdahl::core
