#include "common/knobs.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/log.h"

namespace citadel {

namespace {

/** The knob's raw text, or nullptr when unset or empty. */
const char *
rawText(const KnobSpec &s, KnobKind want)
{
    if (s.kind != want)
        panic("knob %s read through the wrong accessor", s.name);
    const char *v = std::getenv(s.name);
    return (v && *v) ? v : nullptr;
}

/** from_chars over the whole text: no sign the type does not take, no
 *  whitespace, no trailing characters, no overflow. */
template <typename T>
bool
parseWhole(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && stop == end;
}

} // namespace

u64
knobU64(Knob k)
{
    return knobU64(k, knobSpec(k).uDefault);
}

u64
knobU64(Knob k, u64 fallback)
{
    const KnobSpec &s = knobSpec(k);
    const char *v = rawText(s, KnobKind::Unsigned);
    using ull = unsigned long long;
    if (fallback < s.uLo || fallback > s.uHi)
        fatal("env: %s fallback %llu outside its own range [%llu, %llu]",
              s.name, ull{fallback}, ull{s.uLo}, ull{s.uHi});
    u64 parsed = fallback;
    if (v && (!parseWhole(v, parsed) || parsed < s.uLo || parsed > s.uHi)) {
        warn("env: %s='%s' is not an integer in [%llu, %llu]; using %llu",
             s.name, v, ull{s.uLo}, ull{s.uHi}, ull{fallback});
        return fallback;
    }
    return parsed;
}

double
knobDouble(Knob k)
{
    const KnobSpec &s = knobSpec(k);
    const char *v = rawText(s, KnobKind::Double);
    double parsed = s.dDefault;
    if (v && (!parseWhole(v, parsed) || !std::isfinite(parsed) ||
              parsed < s.dLo || parsed > s.dHi)) {
        warn("env: %s='%s' is not a finite decimal in [%g, %g]; using %g",
             s.name, v, s.dLo, s.dHi, s.dDefault);
        return s.dDefault;
    }
    return parsed;
}

std::size_t
knobChoice(Knob k)
{
    const KnobSpec &s = knobSpec(k);
    const char *v = rawText(s, KnobKind::Choice);
    const std::string_view *begin = s.choices.data();
    const std::string_view *end = begin + s.choiceCount();
    const std::string_view want = v ? v : s.sDefault;
    if (const auto *hit = std::find(begin, end, want); hit != end)
        return static_cast<std::size_t>(hit - begin);
    std::string spellings;
    for (const std::string_view *c = begin; c != end; ++c)
        spellings.append(c == begin ? "" : "|").append(*c);
    warn("env: %s='%s' is not one of %s; using %s", s.name, v,
         spellings.c_str(), s.sDefault.data());
    return static_cast<std::size_t>(std::find(begin, end, s.sDefault) -
                                    begin);
}

std::string
knobText(Knob k)
{
    const char *v = rawText(knobSpec(k), KnobKind::Text);
    return v ? v : "";
}

} // namespace citadel
