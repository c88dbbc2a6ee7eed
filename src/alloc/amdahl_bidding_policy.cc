#include "amdahl_bidding_policy.hh"

#include "common/check.hh"
#include "common/logging.hh"
#include "core/rounding.hh"

namespace amdahl::alloc {

core::BiddingOptions
defaultClearingOptions()
{
    core::BiddingOptions opts;
    opts.accel.enabled = true;
    return opts;
}

AllocationResult
AmdahlBiddingPolicy::allocate(const core::FisherMarket &market) const
{
    return AmdahlBiddingPolicy::allocate(market, core::ClearingContext{});
}

AllocationResult
AmdahlBiddingPolicy::allocate(
    const core::FisherMarket &market,
    const core::BidTransportFaults &faults) const
{
    core::ClearingContext ctx;
    ctx.transport = faults;
    return AmdahlBiddingPolicy::allocate(market, ctx);
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
