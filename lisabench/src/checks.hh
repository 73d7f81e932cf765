/**
 * @file
 * Output checks, run outside every timed region. A mapping passes when
 * the full invariant verifier (verify::verifyMapping) accepts it and the
 * cycle-level simulation of the mapped kernel stores exactly what the
 * reference interpreter of its DFG stores (sim::verifyMapping against
 * sim::interpretReference), which is independent of every mapper.
 */

#ifndef LISABENCH_CHECKS_HH
#define LISABENCH_CHECKS_HH

#include <string>

#include "mapping/mapping.hh"

namespace lisabench {

/** Loop iterations simulated per check. */
constexpr int kSimIterations = 6;

/** Check one mapping. @return false and fill @p error on failure. */
bool checkMapping(const lisa::map::Mapping &mapping, std::string &error);

/** A serve reply, decoded and checked. */
struct ReplyCheck
{
    /** The reply's "ok" flag (false = a failed op, not a wrong answer). */
    bool ok = false;
    /** False when an ok reply failed an output check. */
    bool correct = true;
    std::string error;
    bool cacheHit = false;
    bool coalesced = false;
    int ii = 0;
    int mii = 0;
    double searchSeconds = 0.0;
    std::string winner;
};

/**
 * Decode @p reply to a map request for @p request_dfg_text on
 * @p accel_spec and check it: the served mapping is over this request's
 * DFG and fabric, at the reported II, and passes checkMapping.
 */
ReplyCheck checkReply(const std::string &reply,
                      const std::string &request_dfg_text,
                      const std::string &accel_spec);

} // namespace lisabench

#endif // LISABENCH_CHECKS_HH
