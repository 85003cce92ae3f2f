#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace effact {

bool
parseSize(const char *text, size_t *out)
{
    // from_chars into an unsigned type takes no sign and no leading
    // space (strtoull would wrap "-1" to 2^64 - 1).
    const char *end = text + std::strlen(text);
    size_t value = 0;
    const std::from_chars_result parsed = std::from_chars(text, end, value);
    if (parsed.ec != std::errc() || parsed.ptr != end)
        return false;
    *out = value;
    return true;
}

size_t
envSize(const char *name, size_t fallback, size_t min)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    size_t value = 0;
    if (parseSize(env, &value) && value >= min)
        return value;
    warn("ignoring invalid %s='%s' (want a decimal integer >= %zu)", name,
         env, min);
    return fallback;
}

} // namespace effact
