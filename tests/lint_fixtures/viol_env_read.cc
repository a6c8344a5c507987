// Fixture: a knob read straight from the environment bypasses the
// knob table's declared range and exact grammar.
#include <cstdlib>

unsigned long long
trialsFromEnv()
{
    const char *v = std::getenv("CITADEL_TRIALS"); // expect-lint: env-read
    return v ? std::strtoull(v, nullptr, 10) : 100000;
}
