/**
 * @file
 * The knob table test. Every row of kKnobs (common/knobs.h) is driven
 * through its own accessor under its own name, so each knob's default,
 * inclusive bounds, exact grammar and rejection path are checked
 * against the table itself rather than a hand-copied range. README.md's
 * knob table must list exactly the same rows.
 */

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernels.h"
#include "common/knobs.h"
#include "common/thread_pool.h"

namespace citadel {
namespace {

using ::testing::internal::CaptureStderr;
using ::testing::internal::GetCapturedStderr;

/** Shortest decimal that reads back as `v` (also README's spelling). */
std::string
decimal(double v)
{
    char buf[400];
    return {buf, std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::fixed)
                     .ptr};
}

/** The value the row's accessor returns now, as text. */
std::string
resolved(const KnobSpec &s)
{
    switch (s.kind) {
    case KnobKind::Unsigned: return std::to_string(knobU64(s.id));
    case KnobKind::Double: return decimal(knobDouble(s.id));
    case KnobKind::Choice: return std::string(s.choices[knobChoice(s.id)]);
    case KnobKind::Text: return knobText(s.id);
    }
    return "?";
}

/** The row's default, as resolved() prints it. */
std::string
defaultText(const KnobSpec &s)
{
    switch (s.kind) {
    case KnobKind::Unsigned: return std::to_string(s.uDefault);
    case KnobKind::Double: return decimal(s.dDefault);
    default: return std::string(s.sDefault);
    }
}

/** Text the row must accept; each resolves to itself. */
std::vector<std::string>
acceptedText(const KnobSpec &s)
{
    switch (s.kind) {
    case KnobKind::Unsigned:
        return {std::to_string(s.uLo), std::to_string(s.uHi)};
    case KnobKind::Double: return {decimal(s.dLo), decimal(s.dHi)};
    case KnobKind::Choice:
        return {s.choices.begin(), s.choices.begin() + s.choiceCount()};
    case KnobKind::Text: return {"ticks=64,rate=2", " any text at all "};
    }
    return {};
}

/** Text the row must reject back to its default, with a warning. */
std::vector<std::string>
rejectedText(const KnobSpec &s)
{
    std::vector<std::string> out = {"bogus", " ", "12abc", "--3"};
    switch (s.kind) {
    case KnobKind::Unsigned:
        // Decimal digits only: no sign, no whitespace, no exponent or
        // fraction, no hex, and no value past 2^64-1.
        out.insert(out.end(), {"-1", " 42", "+42", "42 ", "4.0", "1e3",
                               "0x10", "99999999999999999999999"});
        if (s.uLo > 0)
            out.push_back(std::to_string(s.uLo - 1));
        if (s.uHi < kU64Max)
            out.push_back(std::to_string(s.uHi + 1));
        break;
    case KnobKind::Double:
        out.insert(out.end(),
                   {" 1", "+1", "1 ", "0x1p0", "1e400", "nan", "inf",
                    "-inf", "NAN", "Infinity", decimal(s.dLo - 1.0),
                    decimal(s.dHi + 1.0)});
        break;
    case KnobKind::Choice:
        // Exact lowercase spellings only.
        for (const std::string &word : acceptedText(s)) {
            std::string upper = word;
            std::transform(word.begin(), word.end(), upper.begin(),
                           ::toupper);
            out.insert(out.end(), {std::string(" ") + word, word + " ",
                                   upper, word + "|" + word});
        }
        break;
    case KnobKind::Text: return {};
    }
    return out;
}

class KnobTable : public ::testing::TestWithParam<KnobSpec>
{
  protected:
    const KnobSpec &spec() const { return GetParam(); }
    void SetUp() override { unsetenv(spec().name); }
    void TearDown() override { unsetenv(spec().name); }
    void set(const std::string &text) { setenv(spec().name, text.c_str(), 1); }
};

TEST_P(KnobTable, UnsetOrEmptyGivesTheDefault)
{
    EXPECT_EQ(resolved(spec()), defaultText(spec()));
    set("");
    EXPECT_EQ(resolved(spec()), defaultText(spec()));
}

TEST_P(KnobTable, AcceptsBoundsAndSpellingsExactly)
{
    for (const std::string &text : acceptedText(spec())) {
        set(text);
        CaptureStderr();
        EXPECT_EQ(resolved(spec()), text);
        EXPECT_EQ(GetCapturedStderr(), "") << "'" << text << "'";
    }
}

TEST_P(KnobTable, RejectsEverythingElseWithAWarning)
{
    for (const std::string &text : rejectedText(spec())) {
        set(text);
        CaptureStderr();
        EXPECT_EQ(resolved(spec()), defaultText(spec()))
            << "'" << text << "'";
        const std::string err = GetCapturedStderr();
        EXPECT_NE(err.find(std::string("warn: env: ") + spec().name),
                  std::string::npos)
            << "'" << text << "' printed: " << err;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobs, KnobTable, ::testing::ValuesIn(kKnobs),
    [](const ::testing::TestParamInfo<KnobSpec> &knob) {
        return std::string(knob.param.name);
    });

TEST(KnobTableRows, ValidatorRejectsBadDefaults)
{
    // knobs.h static_asserts the whole table; these rows prove the
    // check has teeth.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr Knob k = Knob::Trials;
    static_assert(!knobRowValid(unsignedKnob(k, "X", 0, 1, 100, "")));
    static_assert(!knobRowValid(unsignedKnob(k, "X", 7, 10, 1, "")));
    static_assert(!knobRowValid(doubleKnob(k, "X", 11.0, 0.0, 10.0, "")));
    static_assert(!knobRowValid(doubleKnob(k, "X", 1.0, 0.0, kInf, "")));
    static_assert(!knobRowValid(doubleKnob(k, "X", kNaN, 0.0, 10.0, "")));
    static_assert(!knobRowValid(choiceKnob(k, "X", "B", {"a", "b"}, "")));
}

TEST(KnobTableRows, CallerFallbackOutsideTheRangeIsFatal)
{
    // A bench's own default must lie in the row's range: violating
    // that is a programming error, fatal even with the knob unset.
    for (const KnobSpec &s : kKnobs) {
        if (s.kind == KnobKind::Unsigned && s.uLo > 0) {
            EXPECT_DEATH(knobU64(s.id, s.uLo - 1), "fallback") << s.name;
        }
        if (s.kind == KnobKind::Unsigned && s.uHi < kU64Max) {
            EXPECT_DEATH(knobU64(s.id, s.uHi + 1), "fallback") << s.name;
        }
    }
}

TEST(KnobTableRows, WrongAccessorPanics)
{
    EXPECT_DEATH(knobDouble(Knob::Trials), "wrong accessor");
    EXPECT_DEATH(knobU64(Knob::Kernel), "wrong accessor");
}

TEST(KnobTableRows, ChoiceSpellingsSelectTheirEnums)
{
    // knobChoice() returns a spelling index that the callers cast to
    // their enum, so each spelling must sit at its enum's position.
    EXPECT_STREQ(kernelModeName(KernelMode::Scalar), "scalar");
    EXPECT_STREQ(kernelModeName(KernelMode::Vector), "vector");
    EXPECT_STREQ(kernelModeName(KernelMode::Auto), "auto");
    setenv("CITADEL_KERNEL", "vector", 1);
    EXPECT_EQ(requestedKernelMode(), KernelMode::Vector);
    unsetenv("CITADEL_KERNEL");
}

TEST(KnobGrammar, NegativePaddedAndOverflowingCountsAreRejected)
{
    // strtoull would read "-1" as 2^64-1: 1024 workers, or a trial
    // count that never finishes. Signs and padding are not digits.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad : {"-1", " 42", "+42", "99999999999999999999999"}) {
        setenv("CITADEL_THREADS", bad, 1);
        EXPECT_EQ(citadelThreads(), hw) << bad;
        setenv("CITADEL_TRIALS", bad, 1);
        EXPECT_EQ(knobU64(Knob::Trials, 60'000), 60'000u) << bad;
    }
    setenv("CITADEL_THREADS", "3", 1);
    EXPECT_EQ(citadelThreads(), 3u);
    unsetenv("CITADEL_THREADS");
    unsetenv("CITADEL_TRIALS");
    EXPECT_EQ(citadelThreads(), hw);
}

/** The README.md table line a row must appear as. */
std::string
readmeLine(const KnobSpec &s)
{
    const std::vector<std::string> ok = acceptedText(s);
    std::string def = defaultText(s), range;
    switch (s.kind) {
    case KnobKind::Unsigned:
    case KnobKind::Double: // ok = {lo, hi}
        range = std::string("[").append(ok[0]).append(", ") + ok[1] + "]";
        break;
    case KnobKind::Choice:
        for (const std::string &word : ok)
            range.append(range.empty() ? "`" : " / `").append(word) += '`';
        def = std::string("`").append(def) + '`';
        break;
    case KnobKind::Text:
        range = "any text";
        def = "empty";
        break;
    }
    return std::string("| `").append(s.name) + "` | " + def + " | " +
           range + " | " + s.doc + " |";
}

TEST(KnobTableRows, ReadmeListsEveryRowExactly)
{
    std::ifstream in(CITADEL_README);
    ASSERT_TRUE(in) << "cannot open " << CITADEL_README;
    std::vector<std::string> rows;
    for (std::string line; std::getline(in, line);)
        if (line.rfind("| `CITADEL_", 0) == 0)
            rows.push_back(line);
    EXPECT_EQ(rows.size(), std::size(kKnobs));
    for (const KnobSpec &s : kKnobs)
        EXPECT_EQ(std::count(rows.begin(), rows.end(), readmeLine(s)), 1)
            << "README.md must list, once:\n"
            << readmeLine(s);
}

} // namespace
} // namespace citadel
