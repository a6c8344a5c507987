// Clean counterpart: the knob is a table row, read by its accessor.
#include "common/knobs.h"

unsigned long long
trialsFromEnv()
{
    return citadel::knobU64(citadel::Knob::Trials);
}
