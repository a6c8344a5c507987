// Fixture: a field stays settable when a caller sets it, or when its
// doc comment gives the test-only reason it stays; the rest is a
// constant in the file that reads it.
#include <cstdint>

constexpr std::uint32_t kWays = 8;

struct CacheConfig
{
    std::uint32_t sets = 1024;

    /** Victim-buffer entries. test-only: a test reaches the eviction
     *  path with one entry. */
    std::uint32_t victims = 4;
};

CacheConfig
paperCache()
{
    CacheConfig cfg;
    cfg.sets = 2048;
    return cfg;
}
