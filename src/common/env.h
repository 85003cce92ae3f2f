/**
 * @file
 * Typed reads of the `EFFACT_*` environment variables.
 */
#ifndef EFFACT_COMMON_ENV_H
#define EFFACT_COMMON_ENV_H

#include <cstddef>

namespace effact {

/**
 * Parses `text` as a decimal count: digits only, no sign, space or
 * suffix, and no overflow of `size_t`. Returns false (leaving `*out`
 * alone) on anything else, so `-1` can never wrap to 2^64 - 1.
 */
bool parseSize(const char *text, size_t *out);

/**
 * The environment variable `name` as a `parseSize` count. Unset returns
 * `fallback`; any other value that does not parse or is below `min`
 * warns and returns `fallback`.
 */
size_t envSize(const char *name, size_t fallback, size_t min = 1);

} // namespace effact

#endif // EFFACT_COMMON_ENV_H
