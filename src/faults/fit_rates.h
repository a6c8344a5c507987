/**
 * @file
 * DRAM failure rates (FIT = failures per 10^9 device-hours).
 *
 * Base rates are the field-measured per-device rates for 1Gb DRAM from
 * Sridharan & Liberty, "A Study of DRAM Failures in the Field" (SC-12).
 * Section III-A of the Citadel paper scales them to 8Gb stacked dies:
 *
 *  - bit and word rates scale with capacity (x8);
 *  - row rates scale with rows per bank: 16K -> 64K (x4), because the
 *    2KB row buffer keeps rows 4x larger too;
 *  - column rates scale with column-decoder logic (x1.9);
 *  - bank rates scale x8, assuming constant sub-array size (more
 *    sub-arrays per bank).
 *
 * The scaled values reproduce Table I of the paper.
 */

#ifndef CITADEL_FAULTS_FIT_RATES_H
#define CITADEL_FAULTS_FIT_RATES_H

#include "faults/fault.h"

namespace citadel {

/** Transient/permanent FIT pair. */
struct FitPair
{
    double transientFit = 0.0;
    double permanentFit = 0.0;

    double total() const { return transientFit + permanentFit; }
};

/**
 * Per-die FIT rates for each DRAM-internal fault mode. TSV rates are
 * swept separately (see SystemConfig::tsvDeviceFit).
 */
struct FitTable
{
    FitPair bit;
    FitPair word;
    FitPair column;
    FitPair row;
    FitPair bank; ///< Includes partial-bank (sub-array) failures.

    /** Sum of all per-die rates, both permanences. */
    double totalFit() const
    {
        return bit.total() + word.total() + column.total() + row.total() +
               bank.total();
    }

    /** Field data for a 1Gb DRAM device (Sridharan & Liberty, SC-12). */
    static FitTable sridharan1Gb();

    /**
     * Table I of the paper: 8Gb stacked die. Constructed by applying
     * the paper's scaling rules to sridharan1Gb() and then matching the
     * paper's printed (rounded) values.
     */
    static FitTable paper8Gb();

    /** Apply the Section III-A scale factors to this table. */
    FitTable scaledForStackedDie() const;

    /** Every rate, both permanences, multiplied by `s`. */
    FitTable scaledBy(double s) const;
};

/** Scale factors from 1Gb to 8Gb dies (Section III-A). */
struct FitScaling
{
    double bitScale = 8.0;
    double wordScale = 8.0;
    double columnScale = 1.9;
    double rowScale = 4.0;
    double bankScale = 8.0;
};

} // namespace citadel

#endif // CITADEL_FAULTS_FIT_RATES_H
