#include "faults/injector.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/kernels.h"
#include "common/log.h"

namespace citadel {

namespace {

/** Fraction of control-plane upsets that are transient SRAM strikes
 *  (clear on the scrub's read-retry). */
constexpr double kMetaTransientFraction = 0.7;

/** Fraction of control-plane upsets that hit the primary *and* the
 *  mirror copy (common-mode: shared well / power event). These are
 *  the ones mirroring alone cannot undo. */
constexpr double kMetaCommonModeFraction = 0.1;

/** Most faults a config may expect per lifetime, on the data plane and
 *  on the control plane each. Far above any studied rate (no config in
 *  the tree expects more than ~800), and low enough that one
 *  lifetime's fault vector stays small and Rng::poisson's count stays
 *  far inside a u64. */
constexpr double kMaxFaultsPerLifetime = 1e5;

/** fatal() unless `x` is finite and >= 0, or > 0 when `positive`:
 *  a NaN or +inf rate would reach Rng::poisson. */
void
requireFinite(const char *field, double x, bool positive = false)
{
    if (!(std::isfinite(x) && (positive ? x > 0.0 : x >= 0.0)))
        fatal("config: %s must be finite and %s 0 (got %g)", field,
              positive ? ">" : ">=", x);
}

/** fatal() unless `expected` faults per lifetime, from the rates in
 *  `fields`, is within kMaxFaultsPerLifetime. */
void
requireFaultCap(const char *fields, double expected)
{
    if (!(expected <= kMaxFaultsPerLifetime))
        fatal("config: %s give %g expected faults per lifetime (limit %g)",
              fields, expected, kMaxFaultsPerLifetime);
}

} // namespace

void
SystemConfig::validate() const
{
    geom.validate();
    requireFinite("lifetimeHours", lifetimeHours, /*positive=*/true);
    requireFinite("scrubHours", scrubHours, /*positive=*/true);
    requireFinite("tsvDeviceFit", tsvDeviceFit);
    requireFinite("metaFit", metaFit);
    for (const FitPair *p : {&rates.bit, &rates.word, &rates.column,
                             &rates.row, &rates.bank}) {
        requireFinite("FIT rates", p->transientFit);
        requireFinite("FIT rates", p->permanentFit);
    }
    if (!(0.0 <= subArrayFraction && subArrayFraction <= 1.0))
        fatal("config: subArrayFraction must be in [0, 1] (got %g)",
              subArrayFraction);
    if (subArrayRows == 0 || (subArrayRows & (subArrayRows - 1)) != 0 ||
        subArrayRows > geom.rowsPerBank)
        fatal("config: subArrayRows (%u) must be a power of two <= "
              "rowsPerBank (%u)",
              subArrayRows, geom.rowsPerBank);

    // Every die's classes plus TSV per stack, and separately the
    // control-plane upsets per stack.
    const double stack_lifetimes = geom.stacks * lifetimeHours;
    requireFaultCap("FIT rates and tsvDeviceFit",
                    fitToPerHour(diesPerStack() * rates.totalFit() +
                                 tsvDeviceFit) *
                        stack_lifetimes);
    requireFaultCap("metaFit", fitToPerHour(metaFit) * stack_lifetimes);
}

FaultInjector::FaultInjector(const SystemConfig &cfg)
    : cfg_(cfg), tsvMap_(cfg.geom)
{
    cfg_.validate();

    // Precompute the per-die Poisson cells in the exact order the
    // sampling loop draws them — [Bit, Word, Column, Row, Bank] x
    // {transient, permanent} — so the draw stream is byte-for-byte
    // the stream the uncached loop produced (frozen by the
    // determinism contract, DESIGN.md section 9).
    const FitTable &r = cfg_.rates;
    const struct { FaultClass cls; const FitPair *fit; } classes[] = {
        {FaultClass::Bit, &r.bit},       {FaultClass::Word, &r.word},
        {FaultClass::Column, &r.column}, {FaultClass::Row, &r.row},
        {FaultClass::Bank, &r.bank},
    };
    u32 next = 0;
    auto addCell = [&](FaultClass cls, double fit, bool transient) {
        RateCell &cell = cells_[next];
        cell.cls = cls;
        cell.transient = transient;
        cell.lambda = fitToPerHour(fit) * cfg_.lifetimeHours;
        if (cell.lambda == 0.0) {
            zeroMax_[next] = kZeroScanSkip;
        } else if (cell.lambda >= 30.0) {
            zeroMax_[next] = kZeroScanHitAll;
        } else {
            cell.expNegLambda = std::exp(-cell.lambda);
            zeroMax_[next] = Rng::unitThreshold(cell.expNegLambda);
        }
        ++next;
    };
    for (const auto &c : classes) {
        addCell(c.cls, c.fit->transientFit, true);
        addCell(c.cls, c.fit->permanentFit, false);
    }
    addCell(FaultClass::DataTsv, cfg_.tsvDeviceFit, false);
}

template <typename Scan, typename OnHit>
void
FaultInjector::walkCells(Scan &&scan, OnHit &&onHit) const
{
    ZeroScanHit hit;
    auto scanCells = [&](u32 first, u32 end, StackId stack,
                         ChannelId channel) {
        for (u32 i = first; i < end; ++i) {
            i += scan(zeroMax_.data() + i, end - i, hit);
            if (i == end)
                return;
            onHit(cells_[i], stack, channel, hit);
        }
    };
    for (u32 s = 0; s < cfg_.geom.stacks; ++s) {
        for (u32 ch = 0; ch < cfg_.diesPerStack(); ++ch)
            scanCells(0, kDieCells, StackId{s}, ChannelId{ch});
        // TSV faults draw their own channel.
        scanCells(kDieCells, kDieCells + 1, StackId{s}, ChannelId{0});
    }
}

namespace {

void
sortByTime(std::vector<Fault> &faults)
{
    std::sort(faults.begin(), faults.end(),
              [](const Fault &a, const Fault &b) {
                  return a.timeHours < b.timeHours;
              });
}

} // namespace

std::vector<Fault>
FaultInjector::sampleLifetime(Rng &rng) const
{
    std::vector<Fault> out;
    sampleLifetime(rng, out);
    return out;
}

void
FaultInjector::sampleLifetime(Rng &rng, std::vector<Fault> &out) const
{
    out.clear();
    // One Poisson draw per cell, in the frozen order. Knuth's first
    // factor is the first uniform, so a cell draws zero faults exactly
    // when u1 <= exp(-lambda), i.e. when the draw's 53 high bits are
    // <= the cell's zeroMax: that test is all a cell costs unless it
    // hits (DESIGN.md section 9).
    walkCells(
        [&rng](const u64 *zeroMax, u32 n, ZeroScanHit &hit) {
            return zeroScanRng<1>(&rng, zeroMax, n, hit);
        },
        [&](const RateCell &cell, StackId stack, ChannelId channel,
            const ZeroScanHit &hit) {
            sampleHits(rng, out, cell, stack, channel,
                       Rng::unit(hit.draws[0]));
        });
    sortByTime(out);
}

void
FaultInjector::sampleLifetime(
    std::span<Rng, kLanes> rngs,
    std::span<std::vector<Fault>, kLanes> outs) const
{
    RngLanes lanes;
    for (unsigned l = 0; l < kLanes; ++l) {
        outs[l].clear();
        lanes.load(l, rngs[l]);
    }
    const ZeroScanFn scan = zeroScanOps().scan;
    walkCells(
        [&](const u64 *zeroMax, u32 n, ZeroScanHit &hit) {
            return scan(lanes, zeroMax, n, hit);
        },
        [&](const RateCell &cell, StackId stack, ChannelId channel,
            const ZeroScanHit &hit) {
            // Each hit lane draws its faults from its own stream and
            // rejoins the group where that stream left off.
            for (unsigned l = 0; l < kLanes; ++l) {
                if ((hit.lanes >> l & 1u) == 0)
                    continue;
                lanes.store(l, rngs[l]);
                sampleHits(rngs[l], outs[l], cell, stack, channel,
                           Rng::unit(hit.draws[l]));
                lanes.load(l, rngs[l]);
            }
        });
    for (unsigned l = 0; l < kLanes; ++l) {
        lanes.store(l, rngs[l]);
        sortByTime(outs[l]);
    }
}

void
FaultInjector::sampleHits(Rng &rng, std::vector<Fault> &out,
                          const RateCell &cell, StackId stack,
                          ChannelId channel, double u1) const
{
    u64 n = 0;
    if (cell.lambda < 30.0) {
        // Rng::poissonKnuth's loop, resumed after its first factor:
        // k - 1 there is n here.
        double p = u1;
        do {
            ++n;
            p *= rng.uniform();
        } while (p > cell.expNegLambda);
    } else {
        n = rng.poisson(cell.lambda);
    }
    const bool tsv = cell.cls == FaultClass::DataTsv;
    for (u64 i = 0; i < n; ++i) {
        const double t = rng.uniform(0.0, cfg_.lifetimeHours);
        if (tsv) {
            out.push_back(makeTsvFault(rng, stack, t));
            continue;
        }
        FaultClass effective = cell.cls;
        if (cell.cls == FaultClass::Bank &&
            rng.chance(cfg_.subArrayFraction))
            effective = FaultClass::SubArray;
        out.push_back(
            makeFault(rng, effective, stack, channel, cell.transient, t));
    }
}

Fault
FaultInjector::makeFault(Rng &rng, FaultClass cls, StackId stack,
                         ChannelId channel, bool transient,
                         double time_hours) const
{
    const StackGeometry &g = cfg_.geom;
    Fault f;
    f.cls = cls;
    f.transient = transient;
    f.timeHours = time_hours;
    f.stack = DimSpec::exact(stack.value());
    f.channel = DimSpec::exact(channel.value());
    f.bank = DimSpec::wild();
    f.row = DimSpec::wild();
    f.col = DimSpec::wild();
    f.bit = DimSpec::wild();

    auto rand_bank = [&] { return DimSpec::exact(
        static_cast<u32>(rng.below(g.banksPerChannel))); };
    auto rand_row = [&] { return DimSpec::exact(
        static_cast<u32>(rng.below(g.rowsPerBank))); };
    auto rand_col = [&] { return DimSpec::exact(
        static_cast<u32>(rng.below(g.linesPerRow()))); };

    switch (cls) {
      case FaultClass::Bit:
        f.bank = rand_bank();
        f.row = rand_row();
        f.col = rand_col();
        f.bit = DimSpec::exact(static_cast<u32>(rng.below(g.bitsPerLine())));
        break;
      case FaultClass::Word: {
        f.bank = rand_bank();
        f.row = rand_row();
        f.col = rand_col();
        // 64-bit aligned word within the line.
        const u32 words = g.bitsPerLine() / 64;
        const u32 w = static_cast<u32>(rng.below(words));
        const u32 full = (1u << g.bitBits()) - 1;
        f.bit = DimSpec::masked(w * 64, full & ~63u);
        break;
      }
      case FaultClass::Column:
        f.bank = rand_bank();
        f.col = rand_col();
        break;
      case FaultClass::Row:
        f.bank = rand_bank();
        f.row = rand_row();
        break;
      case FaultClass::SubArray: {
        f.bank = rand_bank();
        const u32 blocks = g.rowsPerBank / cfg_.subArrayRows;
        const u32 base =
            static_cast<u32>(rng.below(blocks)) * cfg_.subArrayRows;
        const u32 full = (1u << g.rowBits()) - 1;
        f.row = DimSpec::masked(base, full & ~(cfg_.subArrayRows - 1));
        break;
      }
      case FaultClass::Bank:
        f.bank = rand_bank();
        break;
      case FaultClass::Channel:
        break;
      default:
        panic("makeFault: class %s is TSV-only", faultClassName(cls));
    }
    return f;
}

std::vector<MetaFault>
FaultInjector::sampleMetaLifetime(Rng &rng, const MetaGeometry &mg) const
{
    std::vector<MetaFault> out;
    if (cfg_.metaFit <= 0.0)
        return out;
    const double lambda = fitToPerHour(cfg_.metaFit) * cfg_.lifetimeHours;
    for (u32 s = 0; s < cfg_.geom.stacks; ++s) {
        const u64 n = rng.poisson(lambda);
        for (u64 i = 0; i < n; ++i) {
            const double t = rng.uniform(0.0, cfg_.lifetimeHours);
            const bool transient = rng.chance(kMetaTransientFraction);
            out.push_back(makeMetaFault(rng, StackId{s}, mg, transient, t));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const MetaFault &a, const MetaFault &b) {
                  return a.timeHours < b.timeHours;
              });
    return out;
}

MetaFault
FaultInjector::makeMetaFault(Rng &rng, StackId stack, const MetaGeometry &mg,
                             bool transient, double time_hours) const
{
    const StackGeometry &g = cfg_.geom;
    MetaFault f;
    f.stack = stack;
    f.transient = transient;
    f.timeHours = time_hours;

    // Mostly single-bit strikes; a tail of adjacent double-bit upsets,
    // which is what SECDED-vs-mirror layering is sized against.
    auto flip = [&]() -> u64 {
        const u32 b = static_cast<u32>(rng.below(64));
        u64 m = u64{1} << b;
        if (rng.chance(0.25))
            m |= u64{1} << ((b + 1) % 64);
        return m;
    };

    switch (static_cast<u32>(rng.below(4))) {
      case 0: {
        f.target = MetaTarget::RrtEntry;
        const u32 units = cfg_.diesPerStack() * g.banksPerChannel;
        const u32 u = static_cast<u32>(rng.below(units));
        f.unit = UnitId{u};
        f.channel = ChannelId{u / g.banksPerChannel};
        f.slot = MetaSlotId{static_cast<u32>(rng.below(mg.rrtSlotsPerUnit))};
        break;
      }
      case 1:
        f.target = MetaTarget::BrtEntry;
        f.slot = MetaSlotId{static_cast<u32>(rng.below(mg.brtSlots))};
        break;
      case 2:
        f.target = MetaTarget::TsvRegister;
        f.channel = ChannelId{
            static_cast<u32>(rng.below(g.channelsPerStack))};
        f.slot = MetaSlotId{0};
        break;
      default:
        f.target = MetaTarget::ParityCacheLine;
        f.slot = MetaSlotId{static_cast<u32>(rng.below(mg.parityCacheWays))};
        break;
    }

    f.flipMask = flip();
    if (rng.chance(kMetaCommonModeFraction))
        f.mirrorFlipMask = flip();
    return f;
}

Fault
FaultInjector::makeTsvFault(Rng &rng, StackId stack,
                            double time_hours) const
{
    const StackGeometry &g = cfg_.geom;
    Fault f;
    f.transient = false; // TSV faults are physical defects.
    f.fromTsv = true;
    f.timeHours = time_hours;
    f.stack = DimSpec::exact(stack.value());
    // TSVs serve the data channels; the ECC die's dedicated lanes are
    // folded into the same device-level rate but modeled on data channels
    // (see DESIGN.md).
    f.channel = DimSpec::exact(
        static_cast<u32>(rng.below(g.channelsPerStack)));
    f.bank = DimSpec::wild();
    f.row = DimSpec::wild();
    f.col = DimSpec::wild();
    f.bit = DimSpec::wild();

    const u32 total = g.dataTsvsPerChannel + g.addrTsvsPerChannel;
    const u32 pick = static_cast<u32>(rng.below(total));
    if (pick < g.dataTsvsPerChannel) {
        const TsvLane d{pick};
        f.cls = FaultClass::DataTsv;
        f.tsvIndex = d;
        u32 value;
        u32 mask;
        tsvMap_.dataTsvBitPattern(d, value, mask);
        f.bit = DimSpec::masked(value, mask);
        return f;
    }

    const TsvLane a{pick - g.dataTsvsPerChannel};
    f.tsvIndex = a;
    switch (tsvMap_.addrTsvEffect(a)) {
      case AtsvEffect::HalfRows: {
        f.cls = FaultClass::AddrTsvRow;
        const u32 b = tsvMap_.addrTsvRowBit(a);
        const u32 stuck = rng.chance(0.5) ? 1u : 0u;
        f.row = DimSpec::masked(stuck << b, 1u << b);
        break;
      }
      case AtsvEffect::HalfBanks: {
        f.cls = FaultClass::AddrTsvBank;
        const u32 b = tsvMap_.addrTsvBankBit(a);
        const u32 stuck = rng.chance(0.5) ? 1u : 0u;
        f.bank = DimSpec::masked(stuck << b, 1u << b);
        break;
      }
      case AtsvEffect::WholeChannel:
        f.cls = FaultClass::Channel;
        break;
    }
    return f;
}

} // namespace citadel
