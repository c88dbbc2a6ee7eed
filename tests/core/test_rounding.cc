/**
 * @file
 * Unit tests for Hamilton (largest-remainder) rounding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/rounding.hh"

namespace amdahl::core {
namespace {

TEST(Hamilton, IntegersPassThrough)
{
    const auto r = hamiltonRound({3.0, 5.0, 4.0}, 12);
    EXPECT_EQ(r, (std::vector<int>{3, 5, 4}));
}

TEST(Hamilton, LargestRemainderWinsTheExtraCore)
{
    const auto r = hamiltonRound({2.7, 3.2, 4.1}, 10);
    // Floors: 2, 3, 4 (9 total); the extra core goes to .7.
    EXPECT_EQ(r, (std::vector<int>{3, 3, 4}));
}

TEST(Hamilton, MultipleExtrasGoInRemainderOrder)
{
    const auto r = hamiltonRound({1.9, 1.8, 1.2, 1.1}, 8);
    // Floors: 1,1,1,1; extras (4) to .9, .8, .2, .1 in order.
    EXPECT_EQ(r, (std::vector<int>{2, 2, 2, 2}));

    const auto r2 = hamiltonRound({1.9, 1.8, 1.2, 1.1}, 7);
    EXPECT_EQ(r2, (std::vector<int>{2, 2, 2, 1}));
}

TEST(Hamilton, TiesBreakByIndexDeterministically)
{
    const auto r = hamiltonRound({1.5, 1.5, 1.0}, 5);
    EXPECT_EQ(r, (std::vector<int>{2, 2, 1}));
}

TEST(Hamilton, SumEqualsCapacityWhenFractionsExhaustIt)
{
    const std::vector<double> frac = {0.3, 5.45, 2.25, 3.6, 0.4};
    const auto r = hamiltonRound(frac, 12);
    EXPECT_EQ(std::accumulate(r.begin(), r.end(), 0), 12);
}

TEST(Hamilton, NoEntryMovesByAFullCore)
{
    const std::vector<double> frac = {0.3, 5.45, 2.25, 3.6, 0.4};
    const auto r = hamiltonRound(frac, 12);
    for (std::size_t k = 0; k < frac.size(); ++k) {
        EXPECT_GE(r[k], static_cast<int>(std::floor(frac[k])));
        EXPECT_LE(r[k], static_cast<int>(std::floor(frac[k])) + 1);
    }
}

TEST(Hamilton, ZeroCapacity)
{
    const auto r = hamiltonRound({0.0, 0.0}, 0);
    EXPECT_EQ(r, (std::vector<int>{0, 0}));
}

TEST(Hamilton, ToleratesTinyNegativeNoise)
{
    const auto r = hamiltonRound({-1e-12, 4.0}, 4);
    EXPECT_EQ(r, (std::vector<int>{0, 4}));
}

TEST(Hamilton, RejectsOversubscription)
{
    EXPECT_THROW(hamiltonRound({3.0, 3.0}, 5), FatalError);
}

TEST(Hamilton, RejectsSubstantialNegatives)
{
    EXPECT_THROW(hamiltonRound({-1.0, 2.0}, 1), FatalError);
}

TEST(Hamilton, RejectsUnderSubscribedServer)
{
    // Capacity 10 but only ~2 cores of fractional allocation across 2
    // jobs: Hamilton cannot invent 8 cores.
    EXPECT_THROW(hamiltonRound({1.0, 1.0}, 10), FatalError);
}

TEST(Hamilton, RejectsNegativeCapacity)
{
    EXPECT_THROW(hamiltonRound({1.0}, -1), FatalError);
}

TEST(RoundOutcome, PreservesServerCapacities)
{
    FisherMarket market({10.0, 10.0});
    market.addUser({"Alice", 1.0, {{0, 0.53, 1.0}, {1, 0.93, 1.0}}});
    market.addUser({"Bob", 1.0, {{0, 0.96, 1.0}, {1, 0.68, 1.0}}});
    const auto result = solveAmdahlBidding(market);
    const auto rounded = roundOutcome(market, result);

    std::vector<int> load(2, 0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            load[jobs[k].server] += rounded[i][k];
    }
    EXPECT_EQ(load[0], 10);
    EXPECT_EQ(load[1], 10);
}

TEST(RoundOutcome, StaysWithinOneCoreOfFractional)
{
    FisherMarket market({10.0, 10.0});
    market.addUser({"Alice", 1.0, {{0, 0.53, 1.0}, {1, 0.93, 1.0}}});
    market.addUser({"Bob", 1.0, {{0, 0.96, 1.0}, {1, 0.68, 1.0}}});
    const auto result = solveAmdahlBidding(market);
    const auto rounded = roundOutcome(market, result);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        for (std::size_t k = 0; k < rounded[i].size(); ++k) {
            EXPECT_LT(std::abs(rounded[i][k] -
                               result.allocation[i][k]),
                      1.0 + 1e-9);
        }
    }
}

/** Textbook largest remainder: floors, then a stable sort. */
std::vector<int>
referenceHamilton(const std::vector<double> &shares, int capacity)
{
    std::vector<int> rounded(shares.size());
    std::vector<std::size_t> order(shares.size());
    int excess = capacity;
    for (std::size_t k = 0; k < shares.size(); ++k) {
        rounded[k] = static_cast<int>(std::floor(shares[k] + 1e-12));
        excess -= rounded[k];
        order[k] = k;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return shares[a] - rounded[a] >
                                shares[b] - rounded[b];
                     });
    for (std::size_t k = 0; k < order.size() && excess > 0; ++k, --excess)
        ++rounded[order[k]];
    return rounded;
}

/** Reference: one Hamilton rounding per server over a full job scan. */
std::vector<std::vector<int>>
roundPerServer(const FisherMarket &market, const MarketOutcome &outcome)
{
    std::vector<std::vector<int>> integral(market.userCount());
    for (std::size_t i = 0; i < market.userCount(); ++i)
        integral[i].assign(market.user(i).jobs.size(), 0);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        std::vector<double> shares;
        std::vector<std::pair<std::size_t, std::size_t>> owners;
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            const auto &jobs = market.user(i).jobs;
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                if (jobs[k].server == j) {
                    shares.push_back(outcome.allocation[i][k]);
                    owners.emplace_back(i, k);
                }
            }
        }
        if (shares.empty())
            continue;
        const auto rounded = referenceHamilton(
            shares, static_cast<int>(std::llround(market.capacity(j))));
        for (std::size_t s = 0; s < owners.size(); ++s)
            integral[owners[s].first][owners[s].second] = rounded[s];
    }
    return integral;
}

TEST(RoundOutcome, MatchesPerServerReferenceOnRandomMarkets)
{
    // Random markets with idle servers, several jobs of one user on
    // one server, and shares drawn from a few levels so remainders
    // tie: tie-breaking is by position, so any change in the order a
    // server's shares are gathered would show up here.
    Rng rng(0x60d);
    for (int trial = 0; trial < 50; ++trial) {
        const int servers = static_cast<int>(rng.uniformInt(1, 12));
        std::vector<double> capacities;
        for (int j = 0; j < servers; ++j)
            capacities.push_back(
                static_cast<double>(rng.uniformInt(1, 32)));
        FisherMarket market(capacities);
        const int users = static_cast<int>(rng.uniformInt(1, 30));
        for (int i = 0; i < users; ++i) {
            MarketUser user{"u" + std::to_string(i), 1.0, {}};
            const int jobs = static_cast<int>(rng.uniformInt(1, 5));
            for (int k = 0; k < jobs; ++k) {
                user.jobs.push_back(
                    {static_cast<std::size_t>(
                         rng.uniformInt(0, servers - 1)),
                     0.9, 1.0});
            }
            market.addUser(std::move(user));
        }

        // Shares on each server: quantized weights scaled to exhaust
        // the server's capacity.
        MarketOutcome outcome;
        outcome.allocation.resize(market.userCount());
        std::vector<double> weightSum(capacities.size(), 0.0);
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            for (const auto &job : market.user(i).jobs) {
                const double w =
                    static_cast<double>(rng.uniformInt(1, 4));
                outcome.allocation[i].push_back(w);
                weightSum[job.server] += w;
            }
        }
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            const auto &jobs = market.user(i).jobs;
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                outcome.allocation[i][k] *=
                    capacities[jobs[k].server] /
                    weightSum[jobs[k].server];
            }
        }
        EXPECT_EQ(roundOutcome(market, outcome),
                  roundPerServer(market, outcome))
            << "trial " << trial;
    }
}

TEST(RoundOutcome, ValidatesShape)
{
    FisherMarket market({10.0});
    market.addUser({"a", 1.0, {{0, 0.9, 1.0}}});
    MarketOutcome outcome; // empty allocation
    EXPECT_THROW(roundOutcome(market, outcome), FatalError);
}

} // namespace
} // namespace amdahl::core
