#include "fleet/fleet_types.h"

#include <sstream>

namespace citadel {
namespace fleet {

const char *
serverStateName(ServerState s)
{
    switch (s) {
    case ServerState::Up:
        return "Up";
    case ServerState::Stalled:
        return "Stalled";
    case ServerState::Slowed:
        return "Slowed";
    case ServerState::Fenced:
        return "Fenced";
    case ServerState::Crashed:
        return "Crashed";
    case ServerState::Warming:
        return "Warming";
    }
    return "?";
}

bool
serverTransitionAllowed(ServerState from, ServerState to)
{
    if (from == to)
        return false;
    switch (from) {
    case ServerState::Up:
    case ServerState::Stalled:
    case ServerState::Slowed:
        // Within Serving freely, or out to Fenced/Crashed. Never
        // directly into Warming: only Fenced servers warm.
        return to != ServerState::Warming;
    case ServerState::Fenced:
        return to == ServerState::Warming || to == ServerState::Crashed;
    case ServerState::Crashed:
        return to == ServerState::Fenced; // process restart
    case ServerState::Warming:
        // Admission (the only re-entry into Serving), abort, or crash.
        return to == ServerState::Up || to == ServerState::Fenced ||
               to == ServerState::Crashed;
    }
    return false;
}

void
FleetCounters::add(const FleetCounters &c)
{
    opsIssued += c.opsIssued;
    opsAcked += c.opsAcked;
    opsFailed += c.opsFailed;
    opsUnresolved += c.opsUnresolved;
    writesAcked += c.writesAcked;
    readsDue += c.readsDue;
    attempts += c.attempts;
    retries += c.retries;
    backoffTicks += c.backoffTicks;
    attemptTimeouts += c.attemptTimeouts;
    hedges += c.hedges;
    hedgeWins += c.hedgeWins;
    duplicatesSuppressed += c.duplicatesSuppressed;
    busyRejections += c.busyRejections;
    dueFailovers += c.dueFailovers;
    requestsDropped += c.requestsDropped;
    requestsDuplicated += c.requestsDuplicated;
    serverCrashes += c.serverCrashes;
    serverStalls += c.serverStalls;
    serverSlowdowns += c.serverSlowdowns;
    healthProbes += c.healthProbes;
    probesMissed += c.probesMissed;
    failovers += c.failovers;
    capacityMigrations += c.capacityMigrations;
    repairPushes += c.repairPushes;
    serverJoins += c.serverJoins;
    warmFills += c.warmFills;
    warmRestarts += c.warmRestarts;
    warmAborts += c.warmAborts;
    loadMigrations += c.loadMigrations;
    resumes += c.resumes;
    requestsServed += c.requestsServed;
    serviceUnitsSpent += c.serviceUnitsSpent;
    queueRejections += c.queueRejections;
    deviceDueReads += c.deviceDueReads;
    deviceCorrected += c.deviceCorrected;
}

std::string
FleetCounters::summary() const
{
    std::ostringstream os;
    os << "ops " << opsAcked << "/" << opsIssued << " acked (" << opsFailed
       << " failed, " << opsUnresolved << " unresolved) | retries "
       << retries << " hedges " << hedges << " (won " << hedgeWins
       << ") | chaos: " << serverCrashes << " crashes, " << serverStalls
       << " stalls, " << requestsDropped << " dropped, "
       << requestsDuplicated << " dup | failovers " << failovers
       << " repairs " << repairPushes << " | elastic: " << serverJoins
       << " joins (" << warmFills << " warm fills, " << warmRestarts
       << " restarts), " << loadMigrations << " load migrations, "
       << resumes << " resumes | device: "
       << deviceCorrected << " CE, " << deviceDueReads << " DUE reads";
    return os.str();
}

} // namespace fleet
} // namespace citadel
