#include "amdahl_bidding_policy.hh"

#include "common/check.hh"
#include "common/logging.hh"
#include "core/rounding.hh"

namespace amdahl::alloc {

AllocationResult
AmdahlBiddingPolicy::allocate(const core::FisherMarket &market) const
{
    AllocationResult result;
    result.policyName = name();
    result.outcome = core::solveAmdahlBidding(market, opts);
    result.cores = core::roundOutcome(market, result.outcome);
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

AllocationResult
AmdahlBiddingPolicy::allocate(
    const core::FisherMarket &market,
    const core::BidTransportFaults &faults) const
{
    core::BiddingOptions faulty = opts;
    faulty.transport = faults;

    AllocationResult result;
    result.policyName = name();
    result.outcome = core::solveAmdahlBidding(market, faulty);
    result.cores = core::roundOutcome(market, result.outcome);
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

AllocationResult
AmdahlBiddingPolicy::allocate(const core::FisherMarket &market,
                              const core::ClearingContext &ctx) const
{
    if (ctx.sharding != nullptr)
        fatal("AmdahlBiddingPolicy clears in-process; sharded "
              "clearing goes through the fallback ladder");
    AllocationResult result;
    result.policyName = name();
    result.outcome = core::solveAmdahlBidding(
        market, core::clearingOptions(opts, ctx));
    result.cores = core::roundOutcome(market, result.outcome);
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

} // namespace amdahl::alloc
