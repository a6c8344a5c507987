/**
 * @file
 * Fixture for death suites that fork while a FleetCampaign's pool
 * threads are alive: a plain fork of a threaded process can leave the
 * child hung (seen under ASan/UBSan on a loaded host), so the
 * "threadsafe" death-test style re-executes the test binary for each
 * death test instead.
 */

#ifndef CITADEL_TESTS_THREADSAFE_DEATH_H
#define CITADEL_TESTS_THREADSAFE_DEATH_H

#include <gtest/gtest.h>

namespace citadel::testing_helpers {

class ThreadsafeDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // GTEST_FLAG_SET arrived in googletest 1.12.
#ifdef GTEST_FLAG_SET
        GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
    }
};

} // namespace citadel::testing_helpers

#endif // CITADEL_TESTS_THREADSAFE_DEATH_H
