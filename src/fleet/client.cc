#include "fleet/client.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "common/rng.h"

namespace citadel {
namespace fleet {

FleetClient::FleetClient(const RetryPolicy &policy, u32 replication,
                         u32 ackQuorum, u64 valueSalt,
                         const ClientTuning &tuning)
    : policy_(policy), replication_(replication), ackQuorum_(ackQuorum),
      valueSalt_(valueSalt)
{
    policy_.validate();
    if (replication_ == 0)
        fatal("FleetClient: replication must be >= 1");
    if (ackQuorum_ == 0 || ackQuorum_ > replication_)
        fatal("FleetClient: ackQuorum must be in [1, replication]");
    if (tuning.opWindow == 0 || tuning.keySpace == 0)
        fatal("FleetClient: ClientTuning opWindow and keySpace must "
              "both be positive");
    hist_.assign(policy_.opDeadline + 2, 0);
    slots_.resize(std::bit_ceil(tuning.opWindow));
    slotMask_ = slots_.size() - 1;
    // Every pending wakeup lies within one op lifetime of the drain
    // cursor, so this horizon makes bucket aliasing impossible (and
    // wakeAt checks anyway).
    const u64 horizon =
        std::max({policy_.opDeadline, policy_.attemptTimeout,
                  kBackoffCap, policy_.hedgeAfter}) +
        4;
    wheel_.resize(std::bit_ceil(horizon));
    wheelMask_ = wheel_.size() - 1;
    versions_.assign(tuning.keySpace, 0);
    acked_.assign(tuning.keySpace, AckedWrite{});
}

void
FleetClient::connect(PlacementFn placement, SendFn send)
{
    placementFn_ = std::move(placement);
    sendFn_ = std::move(send);
}

u64
FleetClient::valueFor(u64 key, u64 version, u64 salt)
{
    return mix64(key * 0xA24BAED4963EE407ull ^
                 version * 0x9FB21C651E98DF25ull ^ salt);
}

u64
FleetClient::valueOf(const Op &op) const
{
    return op.kind == OpKind::Write ? valueFor(op.key, op.version, valueSalt_)
                                    : 0;
}

u64
FleetClient::deadlineOf(const Op &op) const
{
    return op.issuedAt + policy_.opDeadline;
}

u32
FleetClient::acksOf(const Op &op)
{
    return static_cast<u32>(std::popcount(op.ackMask));
}

FleetClient::OpRecord
FleetClient::recordOf(const Op &op) const
{
    OpRecord r;
    r.kind = op.kind;
    r.key = op.key;
    r.version = op.version;
    r.value = valueOf(op);
    r.issuedAt = op.issuedAt;
    r.deadline = deadlineOf(op);
    r.attempts = op.attempts;
    r.lastSentAt = op.lastSentAt;
    r.retryAt = op.retryAt;
    r.hedged = op.hedged;
    r.mainServer = op.mainServer;
    r.hedgeServer = op.hedgeServer;
    r.ackMask = op.ackMask;
    r.acks = acksOf(op);
    return r;
}

FleetClient::Op &
FleetClient::insertOp(const Op &op)
{
    Op &slot = slots_[op.id & slotMask_];
    if (slot.live) {
        if (slot.id == op.id)
            fatal("FleetClient: duplicate operation id %llu",
                  static_cast<unsigned long long>(op.id));
        fatal("FleetClient: live op id span exceeds the op window "
              "(%zu slots): op %llu collides with live op %llu",
              slots_.size(), static_cast<unsigned long long>(op.id),
              static_cast<unsigned long long>(slot.id));
    }
    slot = op;
    slot.live = true;
    ++live_;
    return slot;
}

FleetClient::Op *
FleetClient::findOp(u64 op_id)
{
    Op &slot = slots_[op_id & slotMask_];
    return (slot.live && slot.id == op_id) ? &slot : nullptr;
}

u64 &
FleetClient::nextVersionOf(u64 key)
{
    if (key >= versions_.size())
        fatal("FleetClient: key %llu outside the key space (%zu)",
              static_cast<unsigned long long>(key), versions_.size());
    return versions_[key];
}

void
FleetClient::recordAck(u64 key, u64 version, u64 value)
{
    AckedWrite &aw = acked_[key]; // startWrite/loadState checked it.
    if (aw.version == 0)
        ++ackedCount_;
    if (version > aw.version) {
        aw.version = version;
        aw.value = value;
    }
}

void
FleetClient::wakeAt(u64 tick, u64 op_id)
{
    // A wake for an already-drained tick lands in the next undrained
    // bucket, so the next tick() call processes it.
    const u64 at = std::max(tick, lastProcessed_ + 1);
    if (at - (lastProcessed_ + 1) >= wheel_.size())
        fatal("FleetClient: wakeup %llu ticks ahead exceeds the wheel "
              "horizon (%zu)",
              static_cast<unsigned long long>(at - lastProcessed_),
              wheel_.size());
    wheel_[at & wheelMask_].push_back(op_id);
}

void
FleetClient::startRead(u64 op_id, u64 key, u64 now)
{
    Op op;
    op.id = op_id;
    op.kind = OpKind::Read;
    op.key = key;
    op.issuedAt = now;
    Op &live = insertOp(op);
    ++counters_.opsIssued;
    wakeAt(deadlineOf(live), op_id);
    sendRead(live, now);
}

void
FleetClient::startWrite(u64 op_id, u64 key, u64 now)
{
    Op op;
    op.id = op_id;
    op.kind = OpKind::Write;
    op.key = key;
    op.version = ++nextVersionOf(key);
    op.issuedAt = now;
    Op &live = insertOp(op);
    ++counters_.opsIssued;
    wakeAt(deadlineOf(live), op_id);
    sendWrite(live, now);
}

void
FleetClient::sendRead(Op &op, u64 now)
{
    placementFn_(op.key, scratch_);
    if (scratch_.empty()) {
        complete(op, false, now);
        return;
    }
    ++op.attempts;
    ++counters_.attempts;
    op.lastSentAt = now;
    op.retryAt = 0;
    op.hedged = false;
    op.hedgeServer = kNoServer;
    const u32 slot =
        (op.attempts - 1) % static_cast<u32>(scratch_.size());
    op.mainServer = scratch_[slot];

    Request r;
    r.op = op.id;
    r.attempt = op.attempts - 1;
    r.replica = slot;
    r.kind = OpKind::Read;
    r.key = op.key;
    sendFn_(r, op.mainServer);

    if (policy_.hedgeAfter > 0 &&
        policy_.hedgeAfter < policy_.attemptTimeout &&
        scratch_.size() > 1)
        wakeAt(now + policy_.hedgeAfter, op.id);
    wakeAt(now + policy_.attemptTimeout, op.id);
}

void
FleetClient::sendWrite(Op &op, u64 now)
{
    placementFn_(op.key, scratch_);
    if (scratch_.empty()) {
        complete(op, false, now);
        return;
    }
    ++op.attempts;
    op.lastSentAt = now;
    op.retryAt = 0;
    const u64 value = valueOf(op);
    // Fan out to every replica that has not acknowledged yet.
    for (u32 slot = 0; slot < scratch_.size(); ++slot) {
        const ServerIdx s = scratch_[slot];
        if (s < 64 && (op.ackMask >> s) & 1)
            continue;
        Request r;
        r.op = op.id;
        r.attempt = op.attempts - 1;
        r.replica = slot;
        r.kind = OpKind::Write;
        r.key = op.key;
        r.version = op.version;
        r.value = value;
        sendFn_(r, s);
        ++counters_.attempts;
    }
    wakeAt(now + policy_.attemptTimeout, op.id);
}

void
FleetClient::sendHedge(Op &op)
{
    placementFn_(op.key, scratch_);
    op.hedged = true;
    for (u32 slot = 0; slot < scratch_.size(); ++slot) {
        if (scratch_[slot] == op.mainServer)
            continue;
        op.hedgeServer = scratch_[slot];
        Request r;
        r.op = op.id;
        r.attempt = op.attempts - 1;
        r.replica = slot;
        r.kind = OpKind::Read;
        r.key = op.key;
        sendFn_(r, op.hedgeServer);
        ++counters_.hedges;
        ++counters_.attempts;
        return;
    }
    // No distinct replica left to hedge to; the attempt timeout path
    // still covers the operation.
}

void
FleetClient::beginBackoff(Op &op, u64 now)
{
    if (op.attempts >= policy_.maxAttempts || now >= deadlineOf(op)) {
        complete(op, false, now);
        return;
    }
    const u64 delay = policy_.backoff(op.id, op.attempts);
    op.retryAt = now + delay;
    counters_.backoffTicks += delay;
    ++counters_.retries;
    wakeAt(op.retryAt, op.id);
}

void
FleetClient::onResponse(const Response &resp, u64 now)
{
    Op *found = findOp(resp.op);
    if (!found) {
        // Completed, failed, or a chaos duplicate: idempotence means
        // late copies are simply dropped.
        ++counters_.duplicatesSuppressed;
        return;
    }
    Op &op = *found;

    switch (resp.status) {
    case Status::Busy:
        ++counters_.busyRejections;
        if (op.retryAt == 0)
            beginBackoff(op, now);
        return;

    case Status::DueData:
        if (op.kind == OpKind::Write) {
            // This replica cannot serve the key's line; the timeout
            // path will re-fan-out, and the quorum rule decides.
            if (op.retryAt == 0)
                beginBackoff(op, now);
            return;
        }
        ++counters_.dueFailovers;
        if (op.attempts < policy_.maxAttempts && now < deadlineOf(op)) {
            // Immediate failover read: the replica's device may be
            // healthy even though this stack lost the line.
            sendRead(op, now);
        } else {
            ++counters_.readsDue;
            complete(op, false, now);
        }
        return;

    case Status::Ok:
    case Status::NotFound:
        if (op.kind == OpKind::Read) {
            if (op.hedgeServer != kNoServer &&
                resp.from == op.hedgeServer &&
                resp.from != op.mainServer)
                ++counters_.hedgeWins;
            complete(op, true, now);
            return;
        }
        // Write acknowledgement path.
        if (resp.status != Status::Ok || resp.version != op.version)
            return; // Stale or partial; not an ack for this version.
        if (resp.from >= 64)
            fatal("FleetClient: server index %u exceeds the 64-server "
                  "ack bitmask",
                  resp.from);
        if ((op.ackMask >> resp.from) & 1)
            return; // Duplicate ack from the same replica.
        op.ackMask |= 1ull << resp.from;
        if (acksOf(op) >= ackQuorum_) {
            recordAck(op.key, op.version, valueOf(op));
            ++counters_.writesAcked;
            complete(op, true, now);
        }
        return;
    }
}

void
FleetClient::evaluate(u64 op_id, u64 now)
{
    Op *found = findOp(op_id);
    if (!found)
        return; // Completed; stale wakeup.
    Op &op = *found;

    if (now >= deadlineOf(op)) {
        complete(op, false, now);
        return;
    }
    if (op.retryAt != 0) {
        if (now >= op.retryAt) {
            op.retryAt = 0;
            if (op.kind == OpKind::Read)
                sendRead(op, now);
            else
                sendWrite(op, now);
        }
        return;
    }
    const u64 elapsed = now - op.lastSentAt;
    if (op.kind == OpKind::Read && !op.hedged &&
        policy_.hedgeAfter > 0 && elapsed >= policy_.hedgeAfter &&
        elapsed < policy_.attemptTimeout)
        sendHedge(op);
    if (elapsed >= policy_.attemptTimeout) {
        ++counters_.attemptTimeouts;
        beginBackoff(op, now);
    }
}

void
FleetClient::tick(u64 now)
{
    // Drain bucket-by-bucket in tick order; within a bucket, insertion
    // order. The index loop re-reads size() so a zero-delay wake
    // inserted while its own tick drains is still processed this
    // call.
    for (u64 t = lastProcessed_ + 1; t <= now; ++t) {
        std::vector<u64> &bucket = wheel_[t & wheelMask_];
        for (std::size_t i = 0; i < bucket.size(); ++i)
            evaluate(bucket[i], now);
        bucket.clear();
        lastProcessed_ = t;
    }
}

void
FleetClient::complete(Op &op, bool acked, u64 now)
{
    if (acked) {
        ++counters_.opsAcked;
        const u64 latency =
            std::min<u64>(now - op.issuedAt, hist_.size() - 1);
        ++hist_[latency];
    } else {
        ++counters_.opsFailed;
    }
    op.live = false;
    --live_;
}

void
FleetClient::finish()
{
    counters_.opsUnresolved += inflight();
    for (Op &slot : slots_)
        slot.live = false;
    live_ = 0;
    for (auto &bucket : wheel_)
        bucket.clear();
}

template <class Client>
void
FleetClient::SavedOps<Client>::saveState(ByteSink &sink) const
{
    Writer out(sink);
    out(static_cast<u64>(client.live_));
    for (const Op &slot : client.slots_)
        if (slot.live)
            out(slot.id, client.recordOf(slot));
}

template <class Client>
void
FleetClient::SavedOps<Client>::loadState(ByteSource &src)
{
    Reader in(src);
    for (Op &slot : client.slots_)
        slot.live = false;
    client.live_ = 0;
    const u64 n = in.count<std::pair<u64, OpRecord>>();
    for (u64 i = 0, next = 0; i < n; ++i) {
        u64 id = 0;
        OpRecord rec;
        in(id, rec);
        if (rec.key >= client.versions_.size())
            fatal("FleetClient: corrupt checkpoint: op %llu key %llu "
                  "outside the key space (%zu)",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(rec.key),
                  client.versions_.size());
        Op op;
        op.id = id;
        op.kind = rec.kind;
        op.key = rec.key;
        op.version = rec.version;
        op.issuedAt = rec.issuedAt;
        op.attempts = rec.attempts;
        op.lastSentAt = rec.lastSentAt;
        op.retryAt = rec.retryAt;
        op.hedged = rec.hedged;
        op.mainServer = rec.mainServer;
        op.hedgeServer = rec.hedgeServer;
        op.ackMask = rec.ackMask;
        // The slot derives value, deadline and acks; a record that
        // disagrees would not re-save to the bytes it came from.
        const OpRecord derived = client.recordOf(op);
        const auto check = [&](const char *what, u64 saved, u64 want) {
            if (saved != want)
                fatal("FleetClient: corrupt checkpoint: op %llu %s %llu "
                      "disagrees with the derived %llu",
                      static_cast<unsigned long long>(id), what,
                      static_cast<unsigned long long>(saved),
                      static_cast<unsigned long long>(want));
        };
        check("value", rec.value, derived.value);
        check("deadline", rec.deadline, derived.deadline);
        check("acks", rec.acks, derived.acks);
        client.insertOp(op);
        // The save walks the slots in order, so each record's slot
        // lies above the one before it (insertOp refuses an equal
        // one); a record out of that order would not re-save to the
        // bytes it came from.
        const u64 slot = id & client.slotMask_;
        if (slot < next)
            fatal("FleetClient: corrupt checkpoint: op %llu in slot %llu "
                  "does not follow slot %llu",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(slot),
                  static_cast<unsigned long long>(next - 1));
        next = slot + 1;
    }
}

void
FleetClient::fields(auto &io, auto &self)
{
    SavedOps ops{self};
    io(self.counters_, self.ackedCount_);
    io.fixed(self.hist_, self.versions_, self.acked_);
    // Buckets are restored by wheel index: together with
    // lastProcessed_ that reproduces the exact drain behavior.
    io(ops, self.lastProcessed_);
    io.fixed(self.wheel_);
}

void
FleetClient::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
FleetClient::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
}

void
FleetClient::serialize(ByteSink &sink) const
{
    Writer out(sink);
    out(ackedCount_);
    forEachAcked([&](u64 key, const AckedWrite &aw) { out(key, aw); });
    out(hist_);
}

} // namespace fleet
} // namespace citadel
