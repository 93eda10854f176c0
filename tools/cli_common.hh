/**
 * @file
 * The flag surface every jcache tool shares.
 *
 * Five tools grew four flags independently; this header makes them
 * one vocabulary, spelled and parsed identically everywhere:
 *
 *   --jobs N                    worker threads (0 = auto)
 *   --progress                  progress / run summary on stderr
 *   --json [path]               machine-readable output; no path or
 *                               "-" means stdout
 *   --engine percell|onepass    replay engine selection
 *
 * A tool declares which of the four it accepts and calls
 * parseCommonFlag() first in its flag loop; anything unclaimed falls
 * through to the tool's own flags.  Malformed values (a non-numeric
 * --jobs, an unknown --engine) throw FatalError with the same message
 * regardless of which tool the user typed them at.
 */

#ifndef JCACHE_TOOLS_CLI_COMMON_HH
#define JCACHE_TOOLS_CLI_COMMON_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "sim/engine.hh"

namespace jcache::tools
{

/** Which shared flags a tool (or subcommand) accepts. */
enum CommonFlag : unsigned
{
    kFlagJobs = 1u << 0,
    kFlagProgress = 1u << 1,
    kFlagJson = 1u << 2,
    kFlagEngine = 1u << 3,
};

/** Parsed values of the shared flags. */
struct CommonFlags
{
    /** --jobs: worker threads; 0 selects the automatic default. */
    unsigned jobs = 0;

    /** --progress seen. */
    bool progress = false;

    /** --json seen. */
    bool json = false;

    /** --json's optional path; empty or "-" means stdout. */
    std::string jsonPath;

    /** --engine: replay engine. */
    sim::Engine engine = sim::kDefaultEngine;

    /** Does the --json sink go to stdout (no path, or "-")? */
    bool jsonToStdout() const
    {
        return jsonPath.empty() || jsonPath == "-";
    }
};

/**
 * Try to consume argv[i] (and its value, if any) as one of the
 * `accepted` shared flags.
 *
 * @return true when consumed; `i` is left on the last argv element
 *         used, matching the `for (...; ++i)` loop idiom.
 * @throws FatalError on a malformed value or a missing required one.
 */
bool parseCommonFlag(int argc, char** argv, int& i, unsigned accepted,
                     CommonFlags& out);

/**
 * Usage-string fragment for the accepted shared flags, e.g.
 * "[--jobs N] [--progress] [--json [path]] [--engine percell|onepass]".
 */
std::string commonUsage(unsigned accepted);

/**
 * Invoke `write` on the --json sink: the file named by the flag's
 * path, or stdout when the path is absent or "-".  No-op unless
 * --json was seen.
 *
 * @throws FatalError when the file cannot be opened.
 */
void writeJsonSink(const CommonFlags& flags,
                   const std::function<void(std::ostream&)>& write);

/**
 * Parse a non-negative decimal integer CLI value.
 *
 * @throws FatalError naming `flag` unless `value` is all decimal
 *         digits (no sign, no whitespace) and fits in `unsigned`.
 */
unsigned parseUnsigned(const std::string& value,
                       const std::string& flag);

/** parseUnsigned() for a value that must fit in 64 bits. */
std::uint64_t parseUnsigned64(const std::string& value,
                              const std::string& flag);

/**
 * Parse a finite, non-negative decimal number CLI value (`0`, `2.5`,
 * `1e3`).
 *
 * @throws FatalError naming `flag` on an empty value, a sign,
 *         whitespace, trailing bytes, NaN or infinity.
 */
double parseNonNegative(const std::string& value,
                        const std::string& flag);

} // namespace jcache::tools

#endif // JCACHE_TOOLS_CLI_COMMON_HH
