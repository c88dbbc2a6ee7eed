/**
 * @file
 * Section VI-F: mechanism overheads.
 *
 * Micro-benchmarks of exactly the steps the paper times:
 *  - a user's Amdahl Bidding update (closed-form equations),
 *  - the market's price update + termination check,
 *  - a user's Best-Response update (interior-point optimization),
 *  - per-server allocation rounding,
 *  - full equilibrium solves for both mechanisms.
 *
 * The paper's headline: BR's bid update costs ~22x AB's. Absolute
 * times differ on our hardware; the ratio is the reproduction target.
 *
 * Before the Google Benchmark cases, a table of the durability and
 * wire codecs an online epoch pays for (`[json:codec]`, pinned in
 * bench/baselines/codec.json): CRC-32 throughput of a byte-at-a-time
 * reference against the slicing-by-8 implementation, encodeOnlineState
 * throughput on a ~40k-job state, and the per-epoch state digest of a
 * durable run, full encode + CRC against OnlineStateDigest. The
 * `identical` column is the gate: every fast path must produce the
 * reference's values. Pass --benchmark_filter='^$' to print the table
 * alone.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/crc32.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "eval/online.hh"
#include "robustness/fault_injector.hh"

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/best_response.hh"
#include "alloc/proportional_fairness.hh"
#include "core/bidding.hh"
#include "core/rounding.hh"
#include "eval/experiment.hh"
#include "sim/workload_library.hh"

namespace {

using namespace amdahl;

/** A representative mid-size market (40 users, 20 servers, d=12). */
const core::FisherMarket &
benchMarket()
{
    static const core::FisherMarket market = [] {
        Rng rng(0xbead);
        eval::PopulationOptions opts;
        opts.users = 40;
        opts.serverMultiplier = 0.5;
        opts.density = 12;
        opts.workloadCount = sim::workloadLibrary().size();
        const auto pop = eval::generatePopulation(rng, opts);
        eval::CharacterizationCache cache;
        return eval::buildMarket(pop, cache,
                                 eval::FractionSource::Estimated);
    }();
    return market;
}

/** Equilibrium prices for the bench market (shared fixture). */
const core::BiddingResult &
benchEquilibrium()
{
    static const core::BiddingResult result =
        core::solveAmdahlBidding(benchMarket());
    return result;
}

void
BM_AB_UserBidUpdate(benchmark::State &state)
{
    const auto &market = benchMarket();
    const auto &eq = benchEquilibrium();
    const auto &user = market.user(0);
    std::vector<double> bids(user.jobs.size(),
                             user.budget / user.jobs.size());
    for (auto _ : state) {
        core::updateUserBids(user, eq.prices, bids);
        benchmark::DoNotOptimize(bids.data());
    }
}
BENCHMARK(BM_AB_UserBidUpdate);

void
BM_AB_MarketIteration(benchmark::State &state)
{
    // One full synchronous round: every user updates bids, then the
    // market recomputes prices.
    const auto &market = benchMarket();
    const auto &eq = benchEquilibrium();
    auto bids = eq.bids;
    std::vector<double> prices(market.serverCount());
    for (auto _ : state) {
        for (std::size_t i = 0; i < market.userCount(); ++i)
            core::updateUserBids(market.user(i), eq.prices, bids[i]);
        std::fill(prices.begin(), prices.end(), 0.0);
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            const auto &jobs = market.user(i).jobs;
            for (std::size_t k = 0; k < jobs.size(); ++k)
                prices[jobs[k].server] += bids[i][k];
        }
        for (std::size_t j = 0; j < market.serverCount(); ++j)
            prices[j] /= market.capacity(j);
        benchmark::DoNotOptimize(prices.data());
    }
}
BENCHMARK(BM_AB_MarketIteration);

void
BM_BR_UserBidUpdate(benchmark::State &state)
{
    // The paper: BR users spend ~22x more per bid update than AB's.
    const auto &market = benchMarket();
    const auto &eq = benchEquilibrium();
    const auto &user = market.user(0);
    std::vector<double> opposing(user.jobs.size());
    for (std::size_t k = 0; k < user.jobs.size(); ++k) {
        const auto j = user.jobs[k].server;
        opposing[k] =
            eq.prices[j] * market.capacity(j) - eq.bids[0][k];
    }
    for (auto _ : state) {
        auto bids = alloc::BestResponsePolicy::bestResponseBids(
            user, market.capacities(), opposing);
        benchmark::DoNotOptimize(bids.data());
    }
}
BENCHMARK(BM_BR_UserBidUpdate);

void
BM_Rounding(benchmark::State &state)
{
    const auto &market = benchMarket();
    const auto &eq = benchEquilibrium();
    for (auto _ : state) {
        auto rounded = core::roundOutcome(market, eq);
        benchmark::DoNotOptimize(rounded.data());
    }
}
BENCHMARK(BM_Rounding);

void
BM_AB_FullSolve(benchmark::State &state)
{
    const auto &market = benchMarket();
    for (auto _ : state) {
        auto result = core::solveAmdahlBidding(market);
        benchmark::DoNotOptimize(result.prices.data());
    }
}
BENCHMARK(BM_AB_FullSolve)->Unit(benchmark::kMillisecond);

void
BM_BR_FullSolve(benchmark::State &state)
{
    const auto &market = benchMarket();
    const alloc::BestResponsePolicy br;
    for (auto _ : state) {
        auto result = br.allocate(market);
        benchmark::DoNotOptimize(result.cores.data());
    }
}
BENCHMARK(BM_BR_FullSolve)->Unit(benchmark::kMillisecond);

void
BM_PF_FullSolve(benchmark::State &state)
{
    // The generic Eisenberg-Gale optimizer: what "markets for generic
    // utility functions" pay per allocation versus AB's closed forms.
    const auto &market = benchMarket();
    const alloc::ProportionalFairnessPolicy pf;
    for (auto _ : state) {
        auto result = pf.allocate(market);
        benchmark::DoNotOptimize(result.cores.data());
    }
}
BENCHMARK(BM_PF_FullSolve)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Codec table
// ---------------------------------------------------------------------

/** The textbook byte-at-a-time CRC-32, the reference for the table. */
std::uint32_t
bytewiseCrc(const std::string &bytes)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xFFFFFFFFu;
    for (const char b : bytes)
        c = table[(c ^ static_cast<unsigned char>(b)) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/** @return Best-of-@p reps seconds per call of @p fn (@p calls per rep). */
template <typename Fn>
double
bestSecondsPerCall(int reps, int calls, Fn &&fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        for (int c = 0; c < calls; ++c)
            fn();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count() /
            calls;
        if (r == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

/** The benchmark's durable_long shape: tens of jobs in flight over a
 *  job log that reaches ~40k entries after 1000 epochs. */
eval::OnlineOptions
longLogScenario()
{
    eval::OnlineOptions opts;
    opts.seed = 1;
    opts.users = 256;
    opts.servers = 8;
    opts.arrivalsPerServerEpoch = 5.0;
    opts.workScaleMin = 0.01;
    opts.workScaleMax = 0.04;
    opts.horizonSeconds = opts.epochSeconds * 1100;
    return opts;
}

/** @return true when every codec row reproduced its reference. */
bool
codecTable()
{
    const int reps = bench::envInt("AMDAHL_BENCH_REPS", 5);
    bool all_identical = true;
    TablePrinter table;
    table.addColumn("case", TablePrinter::Align::Left);
    table.addColumn("bytes");
    table.addColumn("reference");
    table.addColumn("fast");
    table.addColumn("unit", TablePrinter::Align::Left);
    table.addColumn("identical", TablePrinter::Align::Left);

    // CRC-32 at three sizes, ~32 MB of input per timed rep.
    Rng rng(0xC0DEC);
    for (const std::size_t size : {std::size_t{100}, std::size_t{1024},
                                   std::size_t{3} << 20}) {
        std::string bytes(size, '\0');
        for (char &b : bytes)
            b = static_cast<char>(rng.uniformInt(0, 255));
        const int calls = static_cast<int>(
            std::max<std::size_t>(1, (std::size_t{32} << 20) / size));
        std::uint32_t sink = 0;
        const double slow = bestSecondsPerCall(
            reps, calls, [&] { sink ^= bytewiseCrc(bytes); });
        const double fast = bestSecondsPerCall(
            reps, calls, [&] { sink ^= crc32(bytes); });
        benchmark::DoNotOptimize(sink);
        const bool identical = bytewiseCrc(bytes) == crc32(bytes);
        all_identical = all_identical && identical;
        table.beginRow()
            .cell(size < 1024 ? "crc32 100 B"
                              : size == 1024 ? "crc32 1 KB" : "crc32 3 MB")
            .cell(size)
            .cell(size / slow / 1e6, 0)
            .cell(size / fast / 1e6, 0)
            .cell("MB/s")
            .cell(identical ? "yes" : "NO");
    }

    // A durable_long-shaped state with a ~40k-job log.
    eval::CharacterizationCache cache;
    const eval::OnlineOptions opts = longLogScenario();
    eval::OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    eval::OnlineRunState state = sim.initState(ab);
    while (state.epoch < 1000)
        sim.runEpoch(state, ab, eval::FractionSource::Estimated, injector);

    {
        const std::string encoded = eval::encodeOnlineState(state, opts);
        std::size_t sink = 0;
        const double seconds = bestSecondsPerCall(reps, 4, [&] {
            sink += eval::encodeOnlineState(state, opts).size();
        });
        benchmark::DoNotOptimize(sink);
        auto decoded = eval::decodeOnlineState(encoded, opts, ab.name());
        const bool identical =
            decoded.ok() &&
            eval::encodeOnlineState(decoded.value(), opts) == encoded;
        all_identical = all_identical && identical;
        table.beginRow()
            .cell("encodeOnlineState")
            .cell(encoded.size())
            .cell("-")
            .cell(encoded.size() / seconds / 1e6, 0)
            .cell("MB/s")
            .cell(identical ? "yes" : "NO");
    }

    // Per-epoch digest over the next 100 epochs: full encode + CRC
    // (what each commit paid before) against the incremental digest.
    {
        eval::OnlineStateDigest digest;
        (void)digest.update(state, opts); // fold the frozen log once
        std::vector<double> full_us, incremental_us;
        bool identical = true;
        const std::size_t bytes =
            eval::encodeOnlineState(state, opts).size();
        while (state.epoch < sim.epochCount()) {
            sim.runEpoch(state, ab, eval::FractionSource::Estimated,
                         injector);
            std::uint32_t full = 0, fast = 0;
            full_us.push_back(1e6 * bestSecondsPerCall(1, 1, [&] {
                full = crc32(eval::encodeOnlineState(state, opts));
            }));
            incremental_us.push_back(1e6 * bestSecondsPerCall(1, 1, [&] {
                fast = digest.update(state, opts);
            }));
            identical = identical && full == fast;
        }
        all_identical = all_identical && identical;
        table.beginRow()
            .cell("state digest per epoch")
            .cell(bytes)
            .cell(median(full_us), 1)
            .cell(median(incremental_us), 1)
            .cell("us")
            .cell(identical ? "yes" : "NO");
    }

    bench::printHeader(
        "Codecs",
        "CRC-32, state encoding and the per-epoch durable digest");
    bench::emitTable(table, "codec");
    std::cout << "\nreference = byte-at-a-time CRC-32 (crc rows) or "
                 "full encodeOnlineState + CRC-32 per epoch (digest "
                 "row, median of 100 epochs); fast = slicing-by-8 "
                 "crc32, encodeOnlineState, and OnlineStateDigest. "
                 "identical compares every value with its reference "
                 "(the encode row: decode then re-encode). Best of "
              << reps << " reps, 1 thread.\n\n";
    bench::emitJson(table, "codec");
    return all_identical;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!codecTable()) {
        std::cerr << "error: a codec fast path disagreed with its "
                     "reference\n";
        return 1;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
