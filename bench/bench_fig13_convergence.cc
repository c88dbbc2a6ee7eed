/**
 * @file
 * Figure 13: Amdahl Bidding iterations to convergence as a function of
 * the user count, the server multiplier, and the workload density.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "eval/population.hh"

int
main()
{
    using namespace amdahl;
    bench::printHeader("Figure 13",
                       "Mean Amdahl Bidding iterations to convergence "
                       "vs users / servers / density");

    auto cfg = bench::benchConfig();
    eval::ExperimentDriver driver(cfg);
    const int pops = cfg.populationsPerPoint;

    // Both columns clear the same populations: "Iterations" is the
    // paper's plain proportional response, "Accelerated" the
    // Anderson-accelerated clear the market policies run.
    const auto iterationCells = [&](TablePrinter &table, int users,
                                    double s, int d) {
        const auto mean = driver.meanBiddingIterations(users, s, d, pops);
        table.cell(mean.plain, 1).cell(mean.accelerated, 1);
    };
    {
        TablePrinter table;
        table.addColumn("Users");
        table.addColumn("Iterations");
        table.addColumn("Accelerated");
        for (int users : {20, 40, 80, 160}) {
            table.beginRow().cell(users);
            iterationCells(table, users, 0.5, 12);
        }
        std::cout << "(a) vs user count (s=0.5, d=12)\n";
        table.print(std::cout);
    }
    {
        TablePrinter table;
        table.addColumn("Multiplier");
        table.addColumn("Servers");
        table.addColumn("Iterations");
        table.addColumn("Accelerated");
        for (double s : eval::paperServerMultipliers()) {
            table.beginRow().cell(s, 2).cell(
                static_cast<int>(std::ceil(s * cfg.users)));
            iterationCells(table, cfg.users, s, 12);
        }
        std::cout << "\n(b) vs server multiplier (n=" << cfg.users
                  << ", d=12)\n";
        table.print(std::cout);
    }
    {
        TablePrinter table;
        table.addColumn("Density");
        table.addColumn("Iterations");
        table.addColumn("Accelerated");
        for (int d : eval::paperDensityLadder()) {
            table.beginRow().cell(d);
            iterationCells(table, cfg.users, 0.5, d);
        }
        std::cout << "\n(c) vs workload density (n=" << cfg.users
                  << ", s=0.5)\n";
        table.print(std::cout);
    }

    std::cout << "\nExpected shape (paper): iterations grow with the "
                 "user population, shrink with more servers (smaller "
                 "bids per job), and respond non-monotonically to "
                 "density.\n";
    bench::emitMetrics("fig13_convergence", cfg);
    return 0;
}
