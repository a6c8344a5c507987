/**
 * @file
 * Self-protection for Citadel's control plane.
 *
 * Every structure the RAS pipeline consults on an access -- RRT and
 * BRT entries, TSV redirection registers, the cached D1 parity lines
 * -- is itself SRAM and can be upset. This store shadows each live
 * record with TWO SECDED(72,64)-encoded copies (primary + mirror) and
 * verifies them at the consistency scrub:
 *
 *   1. decode the primary; a single-bit flip is corrected in place;
 *   2. on an uncorrectable/wrong primary, retry the read up to
 *      `retryMax` times with exponential backoff (base << attempt
 *      cycles, accumulated in the counters) -- a transient SRAM strike
 *      clears on the first retry;
 *   3. still wrong: restore the primary from the mirror;
 *   4. mirror also lost (common-mode hit): the record is LOST. The
 *      store reports it and the datapath reacts -- the logical remap
 *      entry is dropped, its slot is retired as dead SRAM, and the
 *      data fault the entry was covering is reactivated so the
 *      bit-true and analytic models keep seeing the same fault set
 *      (the no-overclaim invariant extends across metadata loss).
 *
 * Detection is batched at the scrub, so a corrupted record can steer
 * accesses wrongly for at most one scrub period. That window is a
 * deliberate modeling choice (checking both copies on every access
 * would double metadata bandwidth); DESIGN.md section 11 quantifies
 * it.
 *
 * Cached D1 parity lines are special: their backing store (the parity
 * die) always holds a clean copy, so a lost cache record is refetched
 * and reinstalled rather than escalated.
 */

#ifndef CITADEL_RAS_META_PROTECT_H
#define CITADEL_RAS_META_PROTECT_H

#include <map>
#include <vector>

#include "common/serialize.h"
#include "faults/meta_fault.h"

namespace citadel {

/** Mirrored + SECDED-encoded shadow of the control-plane records. */
class ProtectedMetaStore
{
  public:
    struct Options
    {
        u32 retryMax = 3;       ///< Read-retry attempts per record.
        u64 backoffCycles = 16; ///< Base backoff; doubles per attempt.
    };

    /** Identity of one protected record. `unit` doubles as the
     *  channel index for TsvRegister records and is 0 elsewhere
     *  unless the target is RrtEntry. */
    struct RecordKey
    {
        MetaTarget target = MetaTarget::RrtEntry;
        StackId stack{};
        UnitId unit{};
        MetaSlotId slot{};

        u64 packed() const;

        friend void fields(auto &io, Of<RecordKey> auto &k)
        {
            io.enumByte(k.target, MetaTarget::ParityCacheLine,
                        "ProtectedMetaStore: corrupt checkpoint: unknown "
                        "record target %u");
            io(k.stack, k.unit, k.slot);
        }
    };

    /** What applying one MetaFault did. */
    enum class ApplyResult
    {
        Applied, ///< Flips landed in a live record's copies.
        NoRecord ///< The targeted slot holds no live record.
    };

    /** One scrub pass over every record. */
    struct ScrubOutcome
    {
        u64 checked = 0;
        u64 corrected = 0;       ///< SECDED single-bit fixes.
        u64 retries = 0;         ///< Read-retry attempts issued.
        u64 backoffCyclesSpent = 0;
        u64 mirrorRestores = 0;  ///< Primary rebuilt from the mirror.
        std::vector<RecordKey> lost; ///< Both copies unrecoverable.
    };

    ProtectedMetaStore(); ///< Default Options.
    explicit ProtectedMetaStore(Options opts);

    /** Install (or overwrite) a record: both copies are freshly
     *  encoded from `payload`. */
    void install(const RecordKey &key, u64 payload);

    /** Drop a record (its logical entry was erased legitimately). */
    void remove(const RecordKey &key);

    bool exists(const RecordKey &key) const;

    /** The canonical payload of a record (what the logical structure
     *  believes); fatal if the record does not exist. */
    u64 payload(const RecordKey &key) const;

    /** Land a control-plane fault in the targeted record's copies. */
    ApplyResult applyFault(const MetaFault &f);

    /** Verify/repair every record; see the file comment for the
     *  escalation order. Lost records are removed from the store. */
    ScrubOutcome scrub();

    std::size_t size() const { return records_.size(); }

    const Options &options() const { return opts_; }

    /** Checkpoint / restore every record. The saved form is the
     *  records alone, each carrying its key; the map key is derived. */
    void saveState(ByteSink &sink) const;
    void loadState(ByteSource &src);

  private:
    struct Record
    {
        RecordKey key;
        u64 payload = 0; ///< Canonical logical content.
        u64 primary = 0;
        u64 mirror = 0;
        u8 primaryCheck = 0;
        u8 mirrorCheck = 0;
        /** Bits of the current corruption that are transient (clear
         *  on the scrub's first read-retry). */
        u64 primaryTransient = 0;
        u64 mirrorTransient = 0;
        u8 primaryCheckTransient = 0;
        u8 mirrorCheckTransient = 0;

        friend void fields(auto &io, Of<Record> auto &r)
        {
            io(r.key, r.payload, r.primary, r.mirror, r.primaryCheck,
               r.mirrorCheck, r.primaryTransient, r.mirrorTransient,
               r.primaryCheckTransient, r.mirrorCheckTransient);
        }
    };

    Options opts_;
    std::map<u64, Record> records_; ///< key.packed() -> record.

    static RecordKey keyOf(const MetaFault &f);

    /** Decode one copy; true when it yields the canonical payload. */
    static bool copyRecovers(u64 word, u8 check, u64 payload,
                             bool &needed_correction);
};

} // namespace citadel

#endif // CITADEL_RAS_META_PROTECT_H
