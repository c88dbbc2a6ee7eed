/**
 * @file
 * Unit tests for the experiment drivers (scaled down for test speed).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "eval/experiment.hh"
#include "sim/workload_library.hh"

namespace amdahl::eval {
namespace {

ExperimentDriver::Config
tinyConfig()
{
    ExperimentDriver::Config cfg;
    cfg.seed = 7;
    cfg.populationsPerPoint = 2;
    cfg.users = 20;
    cfg.serverMultiplier = 0.5;
    cfg.includeBestResponse = false; // keep unit tests fast
    return cfg;
}

TEST(Experiment, BuildMarketMirrorsPopulation)
{
    Rng rng(3);
    PopulationOptions opts;
    opts.users = 15;
    opts.serverMultiplier = 0.5;
    opts.density = 8;
    opts.workloadCount = sim::workloadLibrary().size();
    const auto pop = generatePopulation(rng, opts);

    CharacterizationCache cache;
    const auto market =
        buildMarket(pop, cache, FractionSource::Estimated);
    EXPECT_EQ(market.userCount(), pop.userCount());
    EXPECT_EQ(market.serverCount(), pop.serverCount);
    EXPECT_NO_THROW(market.validate());
    for (std::size_t i = 0; i < pop.userCount(); ++i) {
        EXPECT_DOUBLE_EQ(market.user(i).budget, pop.budgets[i]);
        ASSERT_EQ(market.user(i).jobs.size(), pop.userJobs[i].size());
        for (std::size_t k = 0; k < pop.userJobs[i].size(); ++k) {
            EXPECT_EQ(market.user(i).jobs[k].server,
                      pop.userJobs[i][k].server);
            EXPECT_DOUBLE_EQ(
                market.user(i).jobs[k].parallelFraction,
                cache.fraction(pop.userJobs[i][k].workloadIndex,
                               FractionSource::Estimated));
        }
    }
}

TEST(Experiment, DensityPointRunsAllPolicies)
{
    ExperimentDriver driver(tinyConfig());
    const auto row = driver.runDensityPoint(8);
    EXPECT_EQ(row.density, 8);
    EXPECT_EQ(row.policies,
              (std::vector<std::string>{"G", "PS", "AB", "UB"}));
    for (const auto &name : row.policies) {
        const auto &m = row.byPolicy.at(name);
        EXPECT_GT(m.sysProgress, 0.0) << name;
        EXPECT_GE(m.mape, 0.0) << name;
    }
}

TEST(Experiment, AmdahlBiddingBeatsProportionalShare)
{
    // The headline Figure 9 ordering at moderate density.
    ExperimentDriver driver(tinyConfig());
    const auto row = driver.runDensityPoint(12);
    EXPECT_GT(row.byPolicy.at("AB").sysProgress,
              row.byPolicy.at("PS").sysProgress);
}

TEST(Experiment, UpperBoundIsUpperBound)
{
    ExperimentDriver driver(tinyConfig());
    const auto row = driver.runDensityPoint(12);
    const double ub = row.byPolicy.at("UB").sysProgress;
    for (const auto &[name, metrics] : row.byPolicy)
        EXPECT_LE(metrics.sysProgress, ub * 1.02) << name;
}

TEST(Experiment, MarketHasLowerMapeThanPerformancePolicies)
{
    // Figure 11: AB tracks entitlements far better than G/UB.
    ExperimentDriver driver(tinyConfig());
    const auto row = driver.runDensityPoint(12);
    EXPECT_LT(row.byPolicy.at("AB").mape,
              row.byPolicy.at("G").mape);
    EXPECT_LT(row.byPolicy.at("AB").mape,
              row.byPolicy.at("UB").mape);
}

TEST(Experiment, ClassProgressCoversEntitlementClasses)
{
    ExperimentDriver driver(tinyConfig());
    const auto row = driver.runDensityPoint(8);
    const auto &ab = row.byPolicy.at("AB");
    EXPECT_FALSE(ab.classProgress.empty());
    for (const auto &[cls, progress] : ab.classProgress) {
        EXPECT_GE(cls, 1);
        EXPECT_LE(cls, 5);
        EXPECT_GT(progress, 0.0);
    }
}

TEST(Experiment, SensitivityGrowsWithPerturbation)
{
    auto cfg = tinyConfig();
    cfg.populationsPerPoint = 1;
    ExperimentDriver driver(cfg);
    const double small = driver.runSensitivity(8, {5.0, 10.0}, 4);
    const double large = driver.runSensitivity(8, {30.0, 35.0}, 4);
    EXPECT_GE(small, 0.0);
    // Larger F over-estimation shifts allocations more (Figure 12's
    // monotone trend).
    EXPECT_GT(large, small);
}

TEST(Experiment, SensitivityShiftsAreModest)
{
    // "over-estimating F by 5 to 15% shifts an allocation by one or
    // two cores."
    ExperimentDriver driver(tinyConfig());
    const double mae = driver.runSensitivity(12, {5.0, 15.0}, 4);
    EXPECT_LT(mae, 3.0);
}

TEST(Experiment, BiddingIterationsArePositiveAndBounded)
{
    ExperimentDriver driver(tinyConfig());
    const auto iters = driver.meanBiddingIterations(20, 0.5, 8, 2);
    EXPECT_GE(iters.plain, 1.0);
    EXPECT_LT(iters.plain, 2000.0);
    EXPECT_GE(iters.accelerated, 1.0);
    EXPECT_LE(iters.accelerated, iters.plain);
}

TEST(Experiment, MisreportStudyRuns)
{
    ExperimentDriver driver(tinyConfig());
    const auto study = driver.runMisreport(16, 8, 0.6, 4);
    EXPECT_GT(study.meanTruthfulUtility, 0.0);
    EXPECT_GT(study.meanMisreportUtility, 0.0);
    EXPECT_GE(study.maxGainPercent, study.meanGainPercent);
}

TEST(Experiment, MisreportingDoesNotPayOnAverage)
{
    // Exaggerating parallelism distorts the liar's own budget split;
    // averaged over trials she does not profit.
    ExperimentDriver driver(tinyConfig());
    const auto study = driver.runMisreport(24, 12, 0.6, 6);
    EXPECT_LT(study.meanGainPercent, 1.0);
}

TEST(Experiment, MisreportValidatesArguments)
{
    ExperimentDriver driver(tinyConfig());
    EXPECT_THROW(driver.runMisreport(16, 8, 0.0, 1), FatalError);
    EXPECT_THROW(driver.runMisreport(16, 8, 1.5, 1), FatalError);
    EXPECT_THROW(driver.runMisreport(16, 8, 0.5, 0), FatalError);
}

TEST(Experiment, ValidatesArguments)
{
    ExperimentDriver driver(tinyConfig());
    EXPECT_THROW(driver.runSensitivity(8, {10.0, 5.0}, 1), FatalError);
    EXPECT_THROW(driver.runSensitivity(8, {5.0, 10.0}, 0), FatalError);
    EXPECT_THROW(driver.meanBiddingIterations(10, 0.5, 8, 0),
                 FatalError);
    ExperimentDriver::Config bad = tinyConfig();
    bad.populationsPerPoint = 0;
    EXPECT_THROW(ExperimentDriver{bad}, FatalError);
}

} // namespace
} // namespace amdahl::eval
