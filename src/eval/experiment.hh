/**
 * @file
 * Experiment drivers for the paper's evaluation (Section VI,
 * Figures 9-13).
 *
 * A driver owns a characterization cache and a deterministic RNG, and
 * reproduces one experiment point at a time: generate populations, build
 * the corresponding Fisher markets (oracle policies see measured
 * parallel fractions; market policies see the sampled-profile
 * estimates), run each allocation policy, and score the integral
 * allocations with ground-truth simulated execution times.
 *
 * Scale note: the paper averages 50 populations with up to 1000 users;
 * the drivers accept any scale, and the bench binaries default to a
 * smaller configuration so the whole suite runs in seconds. The shapes
 * (policy ordering, crossovers) are stable across scales.
 */

#ifndef AMDAHL_EVAL_EXPERIMENT_HH
#define AMDAHL_EVAL_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "core/market.hh"
#include "eval/characterization.hh"
#include "eval/metrics.hh"
#include "eval/population.hh"

namespace amdahl::eval {

/**
 * Build the Fisher market for a population.
 *
 * @param pop    The population (users, budgets, job placement).
 * @param cache  Workload characterizations.
 * @param source Which parallel fraction each job's utility uses.
 */
core::FisherMarket buildMarket(const Population &pop,
                               CharacterizationCache &cache,
                               FractionSource source);

/** Averaged results of one policy at one experiment point. */
struct PolicyMetrics
{
    double sysProgress = 0.0;      //!< Mean SysProgress.
    double mape = 0.0;             //!< Mean entitlement MAPE (Fig 11).
    double meanIterations = 0.0;   //!< Mean mechanism iterations.

    /** Mean user progress per entitlement class (Fig 10). */
    std::map<int, double> classProgress;
};

/** One density point of the Figure 9/10/11 sweeps. */
struct DensitySweepRow
{
    int density = 0;
    std::vector<std::string> policies; //!< Order policies were run in.
    std::map<std::string, PolicyMetrics> byPolicy;
};

/**
 * Reproduces the paper's evaluation experiments.
 */
class ExperimentDriver
{
  public:
    /** Scale and determinism knobs. */
    struct Config
    {
        std::uint64_t seed = 0xa11da;  //!< Population RNG seed.
        int populationsPerPoint = 5;   //!< Paper: 50.
        int users = 60;                //!< Paper: 40-1000.
        double serverMultiplier = 0.5; //!< Paper: {0.25,...,4}.
        int coresPerServer = 24;       //!< Table II server.
        bool includeBestResponse = true; //!< BR is the slow baseline.
    };

    /** Construct with default Config. */
    ExperimentDriver();

    explicit ExperimentDriver(Config config);

    /** @return The shared characterization cache. */
    CharacterizationCache &cache() { return cache_; }

    /**
     * One density point: run all policies over fresh populations and
     * average (Figures 9, 10, 11).
     */
    DensitySweepRow runDensityPoint(int density);

    /**
     * Figure 12: perturb a random user's parallel fractions down by a
     * percentage drawn from [bucket.first, bucket.second], re-run
     * Amdahl Bidding, and report the mean absolute change in the
     * perturbed user's per-job core allocations.
     *
     * @param density          Workload density.
     * @param bucket           Reduction range in percent (e.g. {5, 10}).
     * @param trials           Populations to average over.
     */
    double runSensitivity(int density, std::pair<double, double> bucket,
                          int trials);

    /** Mean iterations to convergence of both clearing paths. */
    struct BiddingIterations
    {
        /** The paper's plain proportional response. */
        double plain = 0.0;
        /** Anderson-accelerated, as the market policies clear. */
        double accelerated = 0.0;
    };

    /**
     * Figure 13: mean Amdahl Bidding iterations to convergence at a
     * given population scale, plain and accelerated over the same
     * populations.
     */
    BiddingIterations meanBiddingIterations(int users,
                                            double server_multiplier,
                                            int density, int populations);

    /** Outcome of the strategy-proofness study (Section I's claim). */
    struct MisreportStudy
    {
        double meanTruthfulUtility = 0.0;
        double meanMisreportUtility = 0.0;
        /** Mean of (misreport - truthful)/truthful, in percent. */
        double meanGainPercent = 0.0;
        /** Worst single-trial gain observed, in percent. */
        double maxGainPercent = 0.0;
    };

    /**
     * Strategy-proofness: one user exaggerates her jobs' parallel
     * fractions (claiming f' = f + exaggeration * (1 - f), capped)
     * while everyone else reports truthfully; both allocations are
     * scored with her *true* utility. The paper claims the market is
     * strategy-proof when the population is large and competitive —
     * so the gain should vanish as `users` grows.
     *
     * @param users        Population size.
     * @param density      Workload density.
     * @param exaggeration Fraction of the remaining headroom claimed,
     *                     in (0, 1].
     * @param trials       Populations to average over.
     */
    MisreportStudy runMisreport(int users, int density,
                                double exaggeration, int trials);

  private:
    Population nextPopulation(int density);
    Population nextPopulation(int users, double multiplier, int density);

    Config cfg;
    CharacterizationCache cache_;
    Rng rng;
};

} // namespace amdahl::eval

#endif // AMDAHL_EVAL_EXPERIMENT_HH
