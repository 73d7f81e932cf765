#include "checks.hh"

#include "dfg/serialize.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "verify/mapping_io.hh"
#include "verify/verify.hh"

namespace lisabench {

using namespace lisa;

bool
checkMapping(const map::Mapping &mapping, std::string &error)
{
    const verify::VerifyReport report =
        verify::verifyMapping(mapping.dfg(), mapping.mrrg(), mapping, {});
    if (!report.ok()) {
        error = "verifier: " + report.toString();
        return false;
    }
    std::string sim_error;
    if (!sim::verifyMapping(mapping, kSimIterations, &sim_error)) {
        error = "simulation differs from the reference: " + sim_error;
        return false;
    }
    return true;
}

ReplyCheck
checkReply(const std::string &reply, const std::string &request_dfg_text,
           const std::string &accel_spec)
{
    ReplyCheck out;
    auto fail = [&](const std::string &why) {
        out.correct = false;
        out.error = why;
        return out;
    };
    auto doc = jsonParse(reply);
    if (!doc || !doc->isObject())
        return fail("reply is not a JSON object");
    out.ok = doc->flag("ok");
    if (!out.ok) {
        out.error = doc->str("error");
        return out;
    }
    out.cacheHit = doc->flag("cacheHit");
    out.coalesced = doc->flag("coalesced");
    out.ii = static_cast<int>(doc->num("ii"));
    out.mii = static_cast<int>(doc->num("mii"));
    out.searchSeconds = doc->num("searchSeconds");
    out.winner = doc->str("winner");
    if (!doc->flag("verified"))
        return fail("ok reply not marked verified");

    std::string error;
    auto loaded = verify::mappingFromText(doc->str("mapping"), &error);
    if (!loaded)
        return fail("served mapping unreadable: " + error);
    auto request_dfg = dfg::fromText(request_dfg_text, &error);
    if (!request_dfg)
        return fail("request DFG unreadable: " + error);
    if (dfg::toText(*loaded->dfg) != dfg::toText(*request_dfg))
        return fail("served mapping is over another DFG");
    if (verify::accelSpecOf(*loaded->accel) != accel_spec)
        return fail("served mapping is for another fabric");
    if (loaded->mrrg->ii() != out.ii || out.ii < out.mii || out.mii < 1)
        return fail("reply II does not match the served mapping");
    if (!checkMapping(*loaded->mapping, error))
        return fail(error);
    return out;
}

} // namespace lisabench
