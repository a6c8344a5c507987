#include "ras/meta_protect.h"

#include "common/log.h"
#include "ecc/secded.h"

namespace citadel {

ProtectedMetaStore::ProtectedMetaStore() : ProtectedMetaStore(Options()) {}

ProtectedMetaStore::ProtectedMetaStore(Options opts) : opts_(opts)
{
    if (opts_.retryMax == 0)
        fatal("ProtectedMetaStore: retryMax must be >= 1");
    if (opts_.backoffCycles == 0)
        fatal("ProtectedMetaStore: backoffCycles must be >= 1");
}

u64
ProtectedMetaStore::RecordKey::packed() const
{
    return (static_cast<u64>(target) << 56) |
           (static_cast<u64>(stack.value()) << 48) |
           (static_cast<u64>(unit.value()) << 16) | slot.value();
}

ProtectedMetaStore::RecordKey
ProtectedMetaStore::keyOf(const MetaFault &f)
{
    RecordKey key;
    key.target = f.target;
    key.stack = f.stack;
    switch (f.target) {
      case MetaTarget::RrtEntry:
        key.unit = f.unit;
        key.slot = f.slot;
        break;
      case MetaTarget::BrtEntry:
      case MetaTarget::ParityCacheLine:
        key.slot = f.slot;
        break;
      case MetaTarget::TsvRegister:
        // The redirection register is per channel; reuse the unit
        // field as its index so one packed-key scheme covers all four
        // structures.
        key.unit = UnitId{f.channel.value()};
        break;
    }
    return key;
}

void
ProtectedMetaStore::install(const RecordKey &key, u64 payload)
{
    Record rec;
    rec.key = key;
    rec.payload = payload;
    rec.primary = payload;
    rec.mirror = payload;
    rec.primaryCheck = Secded::encode(payload);
    rec.mirrorCheck = rec.primaryCheck;
    records_[key.packed()] = rec;
}

void
ProtectedMetaStore::remove(const RecordKey &key)
{
    records_.erase(key.packed());
}

bool
ProtectedMetaStore::exists(const RecordKey &key) const
{
    return records_.count(key.packed()) != 0;
}

u64
ProtectedMetaStore::payload(const RecordKey &key) const
{
    auto it = records_.find(key.packed());
    if (it == records_.end())
        fatal("ProtectedMetaStore: no record for key 0x%llx",
              static_cast<unsigned long long>(key.packed()));
    return it->second.payload;
}

ProtectedMetaStore::ApplyResult
ProtectedMetaStore::applyFault(const MetaFault &f)
{
    auto it = records_.find(keyOf(f).packed());
    if (it == records_.end())
        return ApplyResult::NoRecord;
    Record &rec = it->second;
    rec.primary ^= f.flipMask;
    rec.mirror ^= f.mirrorFlipMask;
    if (f.transient) {
        rec.primaryTransient ^= f.flipMask;
        rec.mirrorTransient ^= f.mirrorFlipMask;
    }
    return ApplyResult::Applied;
}

bool
ProtectedMetaStore::copyRecovers(u64 word, u8 check, u64 payload,
                                 bool &needed_correction)
{
    u64 w = word;
    const Secded::Outcome o = Secded::decode(w, check);
    if (o == Secded::Outcome::DetectedDouble)
        return false;
    needed_correction = (o == Secded::Outcome::Corrected);
    // The consistency half of the scrub: the decoded shadow must match
    // the canonical payload (the live logical entry). A SECDED
    // miscorrection fails this compare instead of slipping through.
    return w == payload;
}

ProtectedMetaStore::ScrubOutcome
ProtectedMetaStore::scrub()
{
    ScrubOutcome out;
    std::vector<u64> dead;

    for (auto &[packed, rec] : records_) {
        ++out.checked;
        u32 attempt = 0;
        bool healthy = false;
        while (true) {
            bool corrected = false;
            if (copyRecovers(rec.primary, rec.primaryCheck, rec.payload,
                             corrected)) {
                if (corrected)
                    ++out.corrected;
                healthy = true;
                break;
            }
            const bool hasTransient =
                (rec.primaryTransient | rec.mirrorTransient) != 0 ||
                (rec.primaryCheckTransient | rec.mirrorCheckTransient) !=
                    0;
            if (hasTransient && attempt < opts_.retryMax) {
                ++attempt;
                ++out.retries;
                out.backoffCyclesSpent += opts_.backoffCycles
                                          << (attempt - 1);
                // A re-read after backoff: transient strikes are gone.
                rec.primary ^= rec.primaryTransient;
                rec.mirror ^= rec.mirrorTransient;
                rec.primaryCheck = static_cast<u8>(
                    rec.primaryCheck ^ rec.primaryCheckTransient);
                rec.mirrorCheck = static_cast<u8>(
                    rec.mirrorCheck ^ rec.mirrorCheckTransient);
                rec.primaryTransient = rec.mirrorTransient = 0;
                rec.primaryCheckTransient = rec.mirrorCheckTransient = 0;
                continue;
            }
            if (copyRecovers(rec.mirror, rec.mirrorCheck, rec.payload,
                             corrected)) {
                ++out.mirrorRestores;
                healthy = true;
                break;
            }
            break; // Both copies unrecoverable: the record is lost.
        }

        if (healthy) {
            // Scrub rewrites both copies freshly encoded, so residual
            // mirror-only corruption does not accumulate.
            rec.primary = rec.payload;
            rec.mirror = rec.payload;
            rec.primaryCheck = Secded::encode(rec.payload);
            rec.mirrorCheck = rec.primaryCheck;
            rec.primaryTransient = rec.mirrorTransient = 0;
            rec.primaryCheckTransient = rec.mirrorCheckTransient = 0;
        } else {
            out.lost.push_back(rec.key);
            dead.push_back(packed);
        }
    }

    for (u64 packed : dead)
        records_.erase(packed);
    return out;
}

void
ProtectedMetaStore::saveState(ByteSink &sink) const
{
    Writer out(sink);
    out(static_cast<u64>(records_.size()));
    for (const auto &[packed, rec] : records_)
        out(rec);
}

void
ProtectedMetaStore::loadState(ByteSource &src)
{
    Reader in(src);
    records_.clear();
    const u64 n = in.count<Record>();
    for (u64 i = 0; i < n; ++i) {
        Record rec;
        in(rec);
        records_.emplace(rec.key.packed(), rec);
    }
}

} // namespace citadel
