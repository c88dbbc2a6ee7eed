#include "bidding.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/amdahl.hh"
#include "core/bidding_kernel.hh"
#include "core/bidding_simd.hh"
#include "exec/thread_pool.hh"
#include "net/options.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"

namespace amdahl::core {

namespace {

/**
 * The residual f = g - x of one (iterate, update) pair, written to
 * @p f, fused with its dot products against the K kept residuals
 * @p kept and with itself: dots[a] = <f, kept[a]>, dots[K] = <f, f>.
 * Each dot is still a strict left fold in index order — exactly the
 * sum a separate pass would produce — but the K + 1 accumulator
 * chains are independent, so their latency-bound adds overlap.
 */
template <std::size_t K>
void
residualAndDots(const double *x, const double *g, double *f,
                const double *const *kept, std::size_t jobs,
                double *dots)
{
    double acc[K + 1] = {};
    for (std::size_t e = 0; e < jobs; ++e) {
        const double fe = g[e] - x[e];
        f[e] = fe;
        for (std::size_t a = 0; a < K; ++a)
            acc[a] += fe * kept[a][e];
        acc[K] += fe * fe;
    }
    std::copy(acc, acc + K + 1, dots);
}

template <std::size_t... K>
constexpr auto
residualAndDotsTable(std::index_sequence<K...>)
{
    return std::array{&residualAndDots<K>...};
}

/** Max history window + 1 (AccelOptions::depth is at most 8). */
constexpr std::size_t kMaxAccelSlots = 9;

/**
 * Anderson acceleration state over the proportional-response map
 * (DESIGN.md §16). Keeps up to depth+1 (update, residual) pairs —
 * g and f = g(x) - x — and the residual Gram matrix
 * G[a][b] = <f_a, f_b>, maintained incrementally so each round costs
 * one fused pass (residual plus new Gram row). The pairs live in a
 * ring of preallocated slots, so a round allocates nothing. All
 * reductions are strict serial left folds — the accelerated
 * trajectory is as reproducible as the plain one.
 */
struct AndersonState
{
    double ridge;
    double maxMixWeight;
    std::vector<std::vector<double>> gs; // per slot
    std::vector<std::vector<double>> fs; // per slot, residuals g - x
    double gram[kMaxAccelSlots][kMaxAccelSlots] = {}; // by slot
    std::size_t head = 0;  // slot of the oldest pair
    std::size_t count = 0; // pairs kept

    AndersonState(int depth, double ridge_, double maxMixWeight_)
        : ridge(ridge_), maxMixWeight(maxMixWeight_),
          gs(static_cast<std::size_t>(depth) + 1),
          fs(static_cast<std::size_t>(depth) + 1)
    {}

    /** Slot of the a-th oldest kept pair. */
    std::size_t
    slot(std::size_t a) const
    {
        return (head + a) % gs.size();
    }

    void
    push(const std::vector<double> &x, const std::vector<double> &g)
    {
        // Full window: the new pair takes the oldest pair's slot.
        if (count == gs.size())
            head = (head + 1) % gs.size();
        else
            ++count;
        const std::size_t kept = count - 1;
        const std::size_t s = slot(kept);
        const std::size_t jobs = x.size();
        gs[s].assign(g.begin(), g.end());
        fs[s].resize(jobs);

        const double *keptF[kMaxAccelSlots];
        for (std::size_t a = 0; a < kept; ++a)
            keptF[a] = fs[slot(a)].data();
        static constexpr auto kPass = residualAndDotsTable(
            std::make_index_sequence<kMaxAccelSlots>{});
        double dots[kMaxAccelSlots];
        kPass[kept](x.data(), g.data(), fs[s].data(), keptF, jobs,
                    dots);
        for (std::size_t a = 0; a < kept; ++a) {
            gram[slot(a)][s] = dots[a];
            gram[s][slot(a)] = dots[a];
        }
        gram[s][s] = dots[kept];
    }

    /**
     * The least-squares mixing proposal: minimize
     * ||f_last + sum_i gamma_i (f_i - f_last)|| over the window,
     * Tikhonov-regularized, solved by partially pivoted Gaussian
     * elimination on the (at most depth x depth) normal equations.
     * @return false when the window is too short or the system is
     * numerically degenerate — the caller then serves the plain step.
     */
    bool
    proposal(std::vector<double> &out) const
    {
        const std::size_t k = count;
        if (k < 2)
            return false;
        const std::size_t mm = k - 1;
        const std::size_t last = slot(k - 1);
        const double gll = gram[last][last];

        // A gamma = rhs over differences d_i = f_i - f_last.
        double A[kMaxAccelSlots * kMaxAccelSlots];
        double rhs[kMaxAccelSlots];
        double trace = 0.0;
        for (std::size_t a = 0; a < mm; ++a) {
            const std::size_t sa = slot(a);
            for (std::size_t b = 0; b < mm; ++b) {
                const std::size_t sb = slot(b);
                A[a * mm + b] = gram[sa][sb] - gram[sa][last] -
                                gram[last][sb] + gll;
            }
            trace += A[a * mm + a];
            rhs[a] = gll - gram[sa][last];
        }
        if (!(trace > 0.0) || !std::isfinite(trace))
            return false;
        const double reg = ridge * trace;
        for (std::size_t a = 0; a < mm; ++a)
            A[a * mm + a] += reg;

        // Gaussian elimination with partial pivoting (mm <= 8).
        std::size_t perm[kMaxAccelSlots];
        for (std::size_t a = 0; a < mm; ++a)
            perm[a] = a;
        for (std::size_t col = 0; col < mm; ++col) {
            std::size_t pivot = col;
            double best = std::abs(A[perm[col] * mm + col]);
            for (std::size_t r = col + 1; r < mm; ++r) {
                const double cand = std::abs(A[perm[r] * mm + col]);
                if (cand > best) {
                    best = cand;
                    pivot = r;
                }
            }
            if (!(best > 1e-14 * trace))
                return false;
            std::swap(perm[col], perm[pivot]);
            const double diag = A[perm[col] * mm + col];
            for (std::size_t r = col + 1; r < mm; ++r) {
                const double factor = A[perm[r] * mm + col] / diag;
                if (factor == 0.0)
                    continue;
                for (std::size_t c = col; c < mm; ++c)
                    A[perm[r] * mm + c] -= factor * A[perm[col] * mm + c];
                rhs[perm[r]] -= factor * rhs[perm[col]];
            }
        }
        double gamma[kMaxAccelSlots];
        for (std::size_t col = mm; col-- > 0;) {
            double v = rhs[perm[col]];
            for (std::size_t c = col + 1; c < mm; ++c)
                v -= A[perm[col] * mm + c] * gamma[c];
            gamma[col] = v / A[perm[col] * mm + col];
            if (!std::isfinite(gamma[col]))
                return false;
        }

        // Bounded extrapolation: an ill-conditioned window asks for
        // an enormous jump that overshoots the locally-linear region
        // and gets rejected; a capped jump in the same direction is
        // accepted and compounds (AccelOptions::maxMixWeight).
        double gsum = 0.0;
        for (std::size_t a = 0; a < mm; ++a)
            gsum += std::abs(gamma[a]);
        if (gsum > maxMixWeight) {
            for (std::size_t a = 0; a < mm; ++a)
                gamma[a] *= maxMixWeight / gsum;
        }

        // out = g_last + sum_i gamma_i (g_i - g_last), element by
        // element, adding the terms in window order.
        const double *gl = gs[last].data();
        const double *gi[kMaxAccelSlots];
        double ga[kMaxAccelSlots];
        std::size_t terms = 0;
        for (std::size_t a = 0; a < mm; ++a) {
            if (gamma[a] == 0.0)
                continue;
            gi[terms] = gs[slot(a)].data();
            ga[terms] = gamma[a];
            ++terms;
        }
        const std::size_t jobs = gs[last].size();
        out.resize(jobs);
        for (std::size_t e = 0; e < jobs; ++e) {
            double v = gl[e];
            for (std::size_t t = 0; t < terms; ++t)
                v += ga[t] * (gi[t][e] - gl[e]);
            out[e] = v;
        }
        return true;
    }
};

/**
 * Project mixed bids back to the feasible set: per user, clamp to the
 * strict-positivity floor initializeBids uses and rescale to restore
 * budget conservation (Eq. 10). The affine mixing can leave a
 * coordinate negative; the projection is what makes the accelerated
 * iterate a legal bid state.
 */
void
projectBids(const detail::BidKernel &kernel, std::vector<double> &bids)
{
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        const std::size_t lo = kernel.userOffset[i];
        const std::size_t hi = kernel.userOffset[i + 1];
        const double floor = 1e-12 * kernel.budget[i];
        double sum = 0.0;
        for (std::size_t e = lo; e < hi; ++e) {
            const double v = bids[e];
            const double clamped =
                (std::isfinite(v) && v > floor) ? v : floor;
            bids[e] = clamped;
            sum += clamped;
        }
        const double scale = kernel.budget[i] / sum;
        for (std::size_t e = lo; e < hi; ++e)
            bids[e] *= scale;
    }
}

} // namespace

void
updateUserBids(const MarketUser &user, const std::vector<double> &prices,
               std::vector<double> &bids)
{
    if (bids.size() != user.jobs.size())
        fatal("bid vector size mismatch for user '", user.name, "'");

    // U_ij = sqrt(f w) * sqrt(p) * s(x) with x = b / p. The factored
    // form (rather than sqrt(f w p)) lets callers hoist sqrt(f w) out
    // of the iteration; the SoA kernel relies on the two forms being
    // the *same* expression so its bids match this function bitwise.
    double total = 0.0;
    for (std::size_t k = 0; k < user.jobs.size(); ++k) {
        const auto &job = user.jobs[k];
        if (job.server >= prices.size()) {
            fatal("user '", user.name, "' bids on server ", job.server,
                  " but only ", prices.size(), " prices were posted");
        }
        const double p = prices[job.server];
        double propensity = 0.0;
        if (p > 0.0 && bids[k] > 0.0) {
            const double x = bids[k] / p;
            propensity =
                std::sqrt(job.parallelFraction * job.weight) *
                std::sqrt(p) * amdahlSpeedup(job.parallelFraction, x);
        }
        bids[k] = propensity; // Reuse storage for the unnormalized U.
        total += propensity;
    }

    if (total <= 0.0) {
        // All propensities vanished (e.g. fully serial jobs): fall back
        // to an even split so the budget is still exhausted.
        const double even = user.budget / static_cast<double>(bids.size());
        std::fill(bids.begin(), bids.end(), even);
        return;
    }
    AMDAHL_CHECK_FINITE(total);
    for (double &b : bids) {
        b = user.budget * b / total;
        AMDAHL_CHECK_FINITE(b);
        AMDAHL_ASSERT(b >= 0.0, "proportional update produced a ",
                      "negative bid for user '", user.name, "'");
    }
}

BiddingOptions
clearingOptions(BiddingOptions base, const ClearingContext &ctx)
{
    base.transport = ctx.transport;
    base.kernelCache = ctx.kernelCache;
    // The complement of the accelerator's applicability fatals.
    const bool sharded = ctx.sharding && ctx.sharding->enabled();
    if (sharded || base.schedule != UpdateSchedule::Synchronous ||
        base.transport.lossRate > 0.0)
        base.accel.enabled = false;
    return base;
}

BiddingResult
solveAmdahlBidding(const FisherMarket &market, const BiddingOptions &opts)
{
    detail::validateBiddingCommon(market, opts);
    if (opts.accel.enabled) {
        if (opts.schedule == UpdateSchedule::GaussSeidel)
            fatal("Anderson acceleration requires the Synchronous "
                  "schedule (the accelerated iterate must respond to "
                  "one posted price vector)");
        if (opts.transport.lossRate > 0.0)
            fatal("Anderson acceleration requires a sound transport; "
                  "under message loss the fixed-point map changes "
                  "every round");
        if (opts.accel.depth < 1 || opts.accel.depth > 8)
            fatal("acceleration depth must be in [1, 8], got ",
                  opts.accel.depth);
        if (!(opts.accel.ridge >= 0.0) ||
            !std::isfinite(opts.accel.ridge))
            fatal("acceleration ridge must be finite and non-negative, "
                  "got ", opts.accel.ridge);
        if (!(opts.accel.maxMixWeight > 0.0) ||
            !std::isfinite(opts.accel.maxMixWeight))
            fatal("acceleration mix-weight cap must be finite and "
                  "positive, got ", opts.accel.maxMixWeight);
    }

    const std::size_t n = market.userCount();
    const std::size_t m = market.serverCount();

    obs::ScopedTimer solve_timer(
        obs::timeHistogram("time.bidding.solve_us"));
    // Per-phase timers, looked up once per solve (map lookups do not
    // belong inside the round loop); nullptr while timing is off.
    obs::Histogram *update_hist =
        obs::timeHistogram("time.bidding.update_us");
    obs::Histogram *prices_hist =
        obs::timeHistogram("time.bidding.prices_us");
    detail::traceBiddingStart(n, m, opts);

    BiddingResult result;
    result.prices.assign(m, 0.0);
    detail::initializeBids(market, opts, result.bids);

    detail::BidKernel localKernel;
    detail::BidKernel &kernel =
        detail::acquireKernel(market, opts.kernelCache, localKernel);
    detail::flattenBids(result.bids, kernel);
    detail::gatherPrices(kernel, result.prices);

    // Anytime bookkeeping. The best-so-far snapshot is seeded with the
    // initial state: on a validated market every server hosts a job and
    // every initial bid is positive, so initial prices are all
    // positive and the snapshot is feasible no matter how early the
    // deadline fires. A round's state only replaces it when its price
    // update moved less *and* its prices stayed strictly positive.
    const bool anytime = opts.deadline.enabled();
    // Baselined DET-clock finding (tools/lint/amdahl_lint.baseline):
    // the wall-clock deadline exists to bound real latency under
    // overload, and the clock is never read unless a deadline is set.
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_time;
    if (opts.deadline.wallClockSeconds > 0.0)
        start_time = Clock::now();
    std::vector<double> best_bids;
    std::vector<double> best_prices;
    double best_delta = std::numeric_limits<double>::infinity();
    if (anytime) {
        best_bids = kernel.bids;
        best_prices = result.prices;
    }

    // Lossy transport: each (user, round) loss decision comes from its
    // own counter-based substream — a pure function of (seed, user,
    // round) — so realizations are identical under either schedule and
    // at any thread count. The mask is materialized serially before the
    // round's fan-out; with a sound transport (the default) nothing is
    // ever drawn.
    const bool lossy = opts.transport.lossRate > 0.0;
    std::vector<unsigned char> lost;
    if (lossy)
        lost.assign(n, 0);
    std::uint64_t lost_messages = 0;

    // The user grain is a config/env knob (bench sweeps it); the
    // price-block size is not, so the canonical fold — and with it
    // every result byte — is identical at any grain.
    const std::size_t userGrain =
        exec::bidUpdateGrain(detail::kUserGrain);

    const bool accel = opts.accel.enabled;
    // accel.depth is validated only when acceleration is on.
    AndersonState anderson(accel ? opts.accel.depth : 0,
                           opts.accel.ridge, opts.accel.maxMixWeight);
    std::vector<double> accel_prev;
    std::vector<double> accel_mix;
    std::vector<double> accel_candidate;
    std::vector<double> accel_prices;
    std::vector<double> accel_next_prices;
    if (accel) {
        accel_prices.resize(m);
        accel_next_prices.resize(m);
    }

    std::vector<double> new_prices(m);
    std::vector<double> live_prices;
    for (int it = 0; it < opts.maxIterations; ++it) {
        bool round_lost_message = false;
        if (lossy) {
            for (std::size_t i = 0; i < n; ++i) {
                lost[i] = counterBernoulli(
                              opts.transport.seed, i,
                              static_cast<std::uint64_t>(it),
                              opts.transport.lossRate)
                              ? 1
                              : 0;
                if (lost[i]) {
                    // This user's update message is lost: her previous
                    // bids stand for the round (they still sum to her
                    // budget, so no invariant moves).
                    round_lost_message = true;
                    ++lost_messages;
                }
            }
        }

        {
            obs::ScopedTimer update_timer(update_hist);
            if (opts.schedule == UpdateSchedule::GaussSeidel) {
                // Inherently sequential: each user responds to prices
                // that already reflect earlier users' new bids.
                live_prices = result.prices;
                for (std::size_t i = 0; i < n; ++i) {
                    if (lossy && lost[i])
                        continue;
                    const std::size_t lo = kernel.userOffset[i];
                    const std::size_t hi = kernel.userOffset[i + 1];
                    // Fold the bid change into prices immediately so
                    // later users in this round see it.
                    std::vector<double> previous(
                        kernel.bids.begin() +
                            static_cast<std::ptrdiff_t>(lo),
                        kernel.bids.begin() +
                            static_cast<std::ptrdiff_t>(hi));
                    detail::updateOneUser(kernel, i, live_prices,
                                          opts.damping);
                    for (std::size_t e = lo; e < hi; ++e) {
                        const std::size_t j = kernel.server[e];
                        live_prices[j] +=
                            (kernel.bids[e] - previous[e - lo]) /
                            kernel.capacity[j];
                    }
                }
            } else {
                // Synchronous: every user responds to the same posted
                // prices and writes only her own bid slots — disjoint
                // per chunk, so the fan-out commutes bitwise. The
                // accelerator needs the pre-update iterate to form the
                // residual g(x) - x.
                if (accel)
                    accel_prev = kernel.bids;
                exec::parallelFor(
                    0, n, userGrain,
                    [&](std::size_t ulo, std::size_t uhi) {
                        if (!lossy) {
                            detail::updateUsersRange(kernel, ulo, uhi,
                                                     result.prices,
                                                     opts.damping);
                            return;
                        }
                        for (std::size_t i = ulo; i < uhi; ++i) {
                            if (lost[i])
                                continue;
                            detail::updateOneUser(kernel, i,
                                                  result.prices,
                                                  opts.damping);
                        }
                    });
            }
        }

        {
            obs::ScopedTimer prices_timer(prices_hist);
            detail::gatherPrices(kernel, new_prices);
        }

        double max_delta =
            detail::maxPriceDelta(result.prices, new_prices, m);

        if (accel) {
            // The plain PRD step is already in kernel.bids/new_prices
            // and is the guaranteed fallback. Try to do better: mix
            // the history window into a candidate iterate, project it
            // to feasibility, and *evaluate* it — one proportional-
            // response pass at the candidate measures its true
            // fixed-point residual. Accept only when that residual is
            // strictly below the plain step's; the evaluation pass is
            // never wasted, because on acceptance g(candidate) is
            // exactly the next iterate (and joins the history). On
            // rejection the plain step stands untouched; the window
            // keeps its pairs, the plain step's among them.
            const double plain_delta = max_delta;
            anderson.push(accel_prev, kernel.bids);
            double accel_delta = -1.0;
            bool accepted = false;
            if (anderson.proposal(accel_mix)) {
                projectBids(kernel, accel_mix);
                // kernel.bids := candidate; accel_mix keeps the plain
                // step for the rejection path.
                std::swap(kernel.bids, accel_mix);
                detail::gatherPrices(kernel, accel_prices);
                accel_candidate = kernel.bids;
                exec::parallelFor(
                    0, n, userGrain,
                    [&](std::size_t ulo, std::size_t uhi) {
                        detail::updateUsersRange(kernel, ulo, uhi,
                                                 accel_prices,
                                                 opts.damping);
                    });
                detail::gatherPrices(kernel, accel_next_prices);
                accel_delta = detail::maxPriceDelta(
                    accel_prices, accel_next_prices, m);
                if (accel_delta < plain_delta) {
                    accepted = true;
                    anderson.push(accel_candidate, kernel.bids);
                    std::swap(new_prices, accel_next_prices);
                    max_delta = accel_delta;
                    ++result.accelAccepted;
                } else {
                    std::swap(kernel.bids, accel_mix);
                    ++result.accelRejected;
                }
            }
            if (auto *sink = obs::traceSink()) {
                obs::TraceEvent(*sink, "bidding_accel")
                    .field("iter", it + 1)
                    .field("plain_delta", plain_delta)
                    .field("accel_delta", accel_delta)
                    .field("accepted", accepted);
            }
        }

        detail::checkRoundInvariants(market, kernel, new_prices,
                                     result.bids);
        result.prices = new_prices;
        result.iterations = it + 1;
        if (opts.trackHistory)
            result.priceDeltaHistory.push_back(max_delta);
        if (auto *sink = obs::traceSink()) {
            obs::TraceEvent(*sink, "bidding_iter")
                .field("iter", it + 1)
                .field("max_delta", max_delta)
                .field("lost_messages", round_lost_message);
        }
        // A round with lost messages can leave prices spuriously
        // still (nobody moved), so it never counts as convergence.
        if (max_delta < opts.priceTolerance && !round_lost_message) {
            result.converged = true;
            break;
        }

        if (anytime) {
            bool positive = true;
            for (double p : new_prices) {
                if (!(p > 0.0)) {
                    positive = false;
                    break;
                }
            }
            if (positive && max_delta < best_delta) {
                best_delta = max_delta;
                best_bids = kernel.bids;
                best_prices = new_prices;
            }
            bool expired = opts.deadline.iterationBudget > 0 &&
                           it + 1 >= opts.deadline.iterationBudget;
            if (opts.deadline.wallClockSeconds > 0.0) {
                result.elapsedSeconds =
                    std::chrono::duration<double>(Clock::now() -
                                                  start_time)
                        .count();
                expired = expired || result.elapsedSeconds >=
                                         opts.deadline.wallClockSeconds;
            }
            if (expired) {
                kernel.bids = std::move(best_bids);
                result.prices = std::move(best_prices);
                result.deadlineExpired = true;
                if (auto *sink = obs::traceSink()) {
                    obs::TraceEvent(*sink, "deadline_expired")
                        .field("iter", it + 1)
                        .field("best_delta", best_delta);
                }
                break;
            }
        }
    }
    if (opts.deadline.wallClockSeconds > 0.0 &&
        !result.deadlineExpired) {
        result.elapsedSeconds =
            std::chrono::duration<double>(Clock::now() - start_time)
                .count();
    }

    detail::recordSolveEnd(result, lost_messages);
    detail::unflattenBids(kernel, result.bids);
    detail::finalizeAllocation(market, result, true);
    return result;
}

} // namespace amdahl::core
