#include "mappers/mapper_stats.hh"

#include <sstream>

namespace lisa::map {

void
MapperStats::merge(const MapperStats &o)
{
    router.merge(o.router);
    movesCommitted += o.movesCommitted;
    movesRolledBack += o.movesRolledBack;
    restarts += o.restarts;
    incumbentCancels += o.incumbentCancels;
    iisProvenInfeasible += o.iisProvenInfeasible;
    boundNodes += o.boundNodes;
    searchesExhausted += o.searchesExhausted;
    initSeconds += o.initSeconds;
    moveSeconds += o.moveSeconds;
    mapSeconds += o.mapSeconds;
}

std::string
MapperStats::toJson() const
{
    std::ostringstream os;
    os << "{"
       << "\"routeEdgeCalls\":" << router.routeEdgeCalls << ","
       << "\"routeFailures\":" << router.routeFailures << ","
       << "\"pqPops\":" << router.pqPops << ","
       << "\"relaxations\":" << router.relaxations << ","
       << "\"heuristicPrunes\":" << router.heuristicPrunes << ","
       << "\"dpCellsSkipped\":" << router.dpCellsSkipped << ","
       << "\"oracleBuilds\":" << router.oracleBuilds << ","
       << "\"oracleHits\":" << router.oracleHits << ","
       << "\"contextHits\":" << router.contextHits << ","
       << "\"contextMisses\":" << router.contextMisses << ","
       << "\"filterRejects\":" << router.filterRejects << ","
       << "\"routeSeconds\":" << router.routeSeconds << ","
       << "\"movesCommitted\":" << movesCommitted << ","
       << "\"movesRolledBack\":" << movesRolledBack << ","
       << "\"restarts\":" << restarts << ","
       << "\"incumbentCancels\":" << incumbentCancels << ","
       << "\"iisProvenInfeasible\":" << iisProvenInfeasible << ","
       << "\"boundNodes\":" << boundNodes << ","
       << "\"searchesExhausted\":" << searchesExhausted << ","
       << "\"initSeconds\":" << initSeconds << ","
       << "\"moveSeconds\":" << moveSeconds << ","
       << "\"mapSeconds\":" << mapSeconds << "}";
    return os.str();
}

} // namespace lisa::map
