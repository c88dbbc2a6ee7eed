/**
 * @file
 * Unit tests for the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"

namespace amdahl {
namespace {

TEST(Random, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Random, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, UniformRangeRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Random, UniformRejectsInvertedBounds)
{
    Rng rng(1);
    EXPECT_THROW(rng.uniform(2.0, 1.0), FatalError);
}

TEST(Random, UniformIntCoversFullInclusiveRange)
{
    Rng rng(17);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(1, 5));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(*seen.begin(), 1);
    EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Random, UniformIntDegenerateRange)
{
    Rng rng(19);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Random, UniformIntHandlesNegativeRanges)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-10, -5);
        EXPECT_GE(v, -10);
        EXPECT_LE(v, -5);
    }
}

TEST(Random, UniformIntRejectsInvertedBounds)
{
    Rng rng(1);
    EXPECT_THROW(rng.uniformInt(5, 4), FatalError);
}

TEST(Random, UniformIntIsRoughlyUnbiased)
{
    Rng rng(29);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<std::size_t>(rng.uniformInt(0, 9))];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Random, GaussianMomentsAreStandard)
{
    Rng rng(31);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Random, GaussianScaledMoments)
{
    Rng rng(37);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Random, BernoulliEdgeCases)
{
    Rng rng(41);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Random, BernoulliFrequencyMatchesP)
{
    Rng rng(43);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Random, PoissonZeroMean)
{
    Rng rng(61);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Random, PoissonMomentsMatch)
{
    // lambda = 2000 exercises the split path: a single Knuth draw
    // underflows exp(-lambda) and returns ~745 every time.
    Rng rng(67);
    for (const double lambda : {3.0, 2000.0}) {
        const int n = lambda > 100.0 ? 2000 : 50000;
        double sum = 0.0, sq = 0.0;
        for (int i = 0; i < n; ++i) {
            const int k = rng.poisson(lambda);
            EXPECT_GE(k, 0);
            sum += k;
            sq += static_cast<double>(k) * k;
        }
        const double mean_hat = sum / n;
        const double var_hat = sq / n - mean_hat * mean_hat;
        // Five standard errors of each estimate.
        EXPECT_NEAR(mean_hat, lambda,
                    std::max(0.05, 5.0 * std::sqrt(lambda / n)))
            << "lambda " << lambda;
        EXPECT_NEAR(var_hat, lambda,
                    std::max(0.15,
                             5.0 * lambda * std::sqrt(2.0 / n)))
            << "lambda " << lambda;
    }
}

TEST(Random, PoissonRejectsNegativeMean)
{
    Rng rng(71);
    EXPECT_THROW(rng.poisson(-1.0), FatalError);
}

TEST(Random, WeightedIndexRespectsWeights)
{
    Rng rng(47);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Random, WeightedIndexRejectsDegenerateInput)
{
    Rng rng(53);
    EXPECT_THROW(rng.weightedIndex({0.0, 0.0}), FatalError);
    EXPECT_THROW(rng.weightedIndex({-1.0, 2.0}), FatalError);
}

TEST(Random, SplitProducesIndependentStream)
{
    Rng parent(59);
    Rng child = parent.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += parent.next() == child.next();
    EXPECT_LT(equal, 3);
}

TEST(Random, SplitMix64KnownFirstOutputs)
{
    // Reference values from the SplitMix64 reference implementation
    // seeded with 0.
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
}

TEST(Random, Mix64MatchesSplitMix64Finalizer)
{
    // mix64 is SplitMix64's output finalizer: mix64(seed + gamma) is
    // the generator's first output.
    EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ULL);
}

TEST(Random, SubstreamSeedIsPinned)
{
    // Regression pins for the counter-based substream derivation. The
    // bid-loss realization in core/bidding.cc is a pure function of
    // these values, so a change here silently re-randomizes every
    // fault-injection experiment — hence exact pins, generated from
    // the implementation at the time the contract was frozen.
    EXPECT_EQ(substreamSeed(0, 0, 0), 0x238275bc38fcbe91ULL);
    EXPECT_EQ(substreamSeed(0, 0, 1), 0x2f32a78496c67c60ULL);
    EXPECT_EQ(substreamSeed(0, 1, 0), 0x44e5b98100c67fb0ULL);
    EXPECT_EQ(substreamSeed(0, 7, 3), 0x131c537753c06f4cULL);
    EXPECT_EQ(substreamSeed(42, 7, 3), 0xf55e4254d4655539ULL);

    // The two counters are not interchangeable.
    EXPECT_NE(substreamSeed(0, 0, 1), substreamSeed(0, 1, 0));
}

TEST(Random, CounterUniformIsInUnitIntervalAndPinned)
{
    EXPECT_EQ(counterUniform(mix64(substreamSeed(0, 0, 0))),
              0.12964561829974741);
    for (std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0}}) {
        const double u = counterUniform(x);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, CounterBernoulliSeedZeroRealizationIsPinned)
{
    // The seed-0, p=0.3 loss mask for users 0..7 over rounds 0..3 —
    // the exact realization fault-injection experiments at seed 0
    // observe, independent of schedule or thread count.
    const int expected[8][4] = {
        {1, 0, 0, 1}, {0, 0, 0, 0}, {0, 0, 1, 0}, {1, 1, 0, 1},
        {0, 0, 0, 0}, {1, 1, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 0},
    };
    for (std::uint64_t u = 0; u < 8; ++u) {
        for (std::uint64_t r = 0; r < 4; ++r) {
            EXPECT_EQ(counterBernoulli(0, u, r, 0.3),
                      expected[u][r] == 1)
                << "user " << u << " round " << r;
        }
    }
}

TEST(Random, CounterBernoulliEdgeCasesNeedNoDraw)
{
    EXPECT_FALSE(counterBernoulli(0, 0, 0, 0.0));
    EXPECT_FALSE(counterBernoulli(0, 0, 0, -1.0));
    EXPECT_TRUE(counterBernoulli(0, 0, 0, 1.0));
    EXPECT_TRUE(counterBernoulli(0, 0, 0, 2.0));
}

TEST(Random, CounterBernoulliFrequencyMatchesP)
{
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += counterBernoulli(99, static_cast<std::uint64_t>(i),
                                 7, 0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

} // namespace
} // namespace amdahl
