// Fixture: a config field that nothing but tests sets, kept without a
// reason, is a constant in disguise.
#include <cstdint>

struct CacheConfig
{
    std::uint32_t sets = 1024;
    std::uint32_t ways = 8; // expect-lint: unset-setting
};

CacheConfig
paperCache()
{
    CacheConfig cfg;
    cfg.sets = 2048;
    return cfg;
}
