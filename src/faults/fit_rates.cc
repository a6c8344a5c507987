#include "faults/fit_rates.h"

namespace citadel {

namespace {

FitPair
scaled(FitPair p, double k)
{
    return {p.transientFit * k, p.permanentFit * k};
}

} // namespace

FitTable
FitTable::sridharan1Gb()
{
    FitTable t;
    t.bit = {14.2, 18.6};
    t.word = {1.4, 0.3};
    t.column = {1.4, 5.5};
    t.row = {0.2, 8.2};
    t.bank = {0.8, 10.0};
    return t;
}

FitTable
FitTable::paper8Gb()
{
    // Table I, verbatim.
    FitTable t;
    t.bit = {113.6, 148.8};
    t.word = {11.2, 2.4};
    t.column = {2.6, 10.5};
    t.row = {0.8, 32.8};
    t.bank = {6.4, 80.0};
    return t;
}

FitTable
FitTable::scaledForStackedDie() const
{
    const FitScaling s;
    return {scaled(bit, s.bitScale), scaled(word, s.wordScale),
            scaled(column, s.columnScale), scaled(row, s.rowScale),
            scaled(bank, s.bankScale)};
}

FitTable
FitTable::scaledBy(double k) const
{
    return {scaled(bit, k), scaled(word, k), scaled(column, k),
            scaled(row, k), scaled(bank, k)};
}

} // namespace citadel
