/**
 * @file
 * Typed reads of the `EFFACT_*` environment variables.
 */
#ifndef EFFACT_COMMON_ENV_H
#define EFFACT_COMMON_ENV_H

#include <cstddef>

namespace effact {

/**
 * The environment variable `name` as a decimal count: digits only, no
 * sign, space or suffix. Unset returns `fallback`; any other value that
 * does not parse, overflows `size_t` or is below `min` warns and
 * returns `fallback`.
 */
size_t envSize(const char *name, size_t fallback, size_t min = 1);

} // namespace effact

#endif // EFFACT_COMMON_ENV_H
