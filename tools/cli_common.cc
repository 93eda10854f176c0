/**
 * @file
 * Implementation of the shared tool flag surface.
 */

#include "cli_common.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>

#include "util/logging.hh"

namespace jcache::tools
{

namespace
{

template <typename T>
T
parseUnsignedAs(const std::string& value, const std::string& flag)
{
    // from_chars refuses an empty value, a sign and whitespace, and
    // reports a value past T's range instead of wrapping it.
    T parsed = 0;
    const char* end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    fatalIf(ec != std::errc() || ptr != end,
            flag + " expects a non-negative integer, got '" + value +
                "'");
    return parsed;
}

} // namespace

unsigned
parseUnsigned(const std::string& value, const std::string& flag)
{
    return parseUnsignedAs<unsigned>(value, flag);
}

std::uint64_t
parseUnsigned64(const std::string& value, const std::string& flag)
{
    return parseUnsignedAs<std::uint64_t>(value, flag);
}

double
parseNonNegative(const std::string& value, const std::string& flag)
{
    // from_chars refuses an empty value, whitespace and a '+', but
    // takes a '-', "nan" and "inf"; those are refused here.
    double parsed = 0.0;
    const char* end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    fatalIf(ec != std::errc() || ptr != end || value.starts_with('-') ||
                !std::isfinite(parsed),
            flag + " expects a non-negative number, got '" + value + "'");
    return parsed;
}

bool
parseCommonFlag(int argc, char** argv, int& i, unsigned accepted,
                CommonFlags& out)
{
    const std::string flag = argv[i];

    if ((accepted & kFlagProgress) && flag == "--progress") {
        out.progress = true;
        return true;
    }
    if ((accepted & kFlagJson) && flag == "--json") {
        out.json = true;
        out.jsonPath.clear();
        // The path is optional: the next element is taken as one
        // unless it looks like another flag.
        if (i + 1 < argc && argv[i + 1][0] != '-')
            out.jsonPath = argv[++i];
        else if (i + 1 < argc && std::string(argv[i + 1]) == "-")
            ++i;  // explicit stdout
        return true;
    }
    if ((accepted & kFlagJobs) && flag == "--jobs") {
        fatalIf(i + 1 >= argc, "--jobs expects a value");
        out.jobs = parseUnsigned(argv[++i], "--jobs");
        return true;
    }
    if ((accepted & kFlagEngine) && flag == "--engine") {
        fatalIf(i + 1 >= argc, "--engine expects a value");
        std::string value = argv[++i];
        auto engine = sim::parseEngine(value);
        fatalIf(!engine, "unknown engine: " + value +
                             " (use percell|onepass)");
        out.engine = *engine;
        return true;
    }
    return false;
}

void
writeJsonSink(const CommonFlags& flags,
              const std::function<void(std::ostream&)>& write)
{
    if (!flags.json)
        return;
    if (flags.jsonToStdout()) {
        write(std::cout);
        return;
    }
    std::ofstream ofs(flags.jsonPath);
    fatalIf(!ofs, "cannot open " + flags.jsonPath);
    write(ofs);
}

std::string
commonUsage(unsigned accepted)
{
    std::string usage;
    auto append = [&](const char* fragment) {
        if (!usage.empty())
            usage += " ";
        usage += fragment;
    };
    if (accepted & kFlagJobs)
        append("[--jobs N]");
    if (accepted & kFlagProgress)
        append("[--progress]");
    if (accepted & kFlagJson)
        append("[--json [path]]");
    if (accepted & kFlagEngine)
        append("[--engine percell|onepass]");
    return usage;
}

} // namespace jcache::tools
