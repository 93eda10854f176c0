/**
 * @file
 * jcache-perfbench: run one benchmark workload, or compare two result
 * sets.
 *
 *   jcache-perfbench --workload paper-grid|assoc-grid|served-mix
 *                    --seed N --seconds S --trace 0|1
 *                    [--jcached PATH] [--work-dir DIR] [--results FILE]
 *                    [--commit ID] [--source-digest HEX]
 *                    [--plant-mismatch]
 *   jcache-perfbench compare BEFORE.jsonl AFTER.jsonl
 *                    [--benchmark BENCHMARK.json]
 *
 * A run prints a readable summary, then one JSON object as the last
 * line of standard output: {correct, attempted, failed, metrics}.  It
 * exits 0 when every output checked out, 1 when the correctness gate
 * failed or the run could not complete, 2 on a usage error.
 */

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfbench.hh"
#include "stats/json.hh"

namespace
{

using namespace perfbench;
using jcache::stats::JsonWriter;

int
usage()
{
    std::cerr
        << "usage: jcache-perfbench --workload "
           "paper-grid|assoc-grid|served-mix --seed N --seconds S\n"
           "         --trace 0|1 [--jcached PATH] [--work-dir DIR]\n"
           "         [--results FILE] [--commit ID] [--source-digest HEX]\n"
           "         [--plant-mismatch]\n"
           "       jcache-perfbench compare BEFORE.jsonl AFTER.jsonl\n"
           "         [--benchmark BENCHMARK.json]\n";
    return 2;
}

std::string
metricsJson(const RunOutput& out)
{
    std::ostringstream oss;
    oss << '{';
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        oss << (i ? ", " : "") << JsonWriter::quote(m.name)
            << ": {\"value\": " << JsonWriter::number(m.value)
            << ", \"unit\": " << JsonWriter::quote(m.unit) << '}';
    }
    oss << '}';
    return oss.str();
}

std::string
mapJson(const std::map<std::string, double>& values)
{
    std::ostringstream oss;
    oss << '{';
    bool first = true;
    for (const auto& [key, value] : values) {
        oss << (first ? "" : ", ") << JsonWriter::quote(key) << ": "
            << JsonWriter::number(value);
        first = false;
    }
    oss << '}';
    return oss.str();
}

void
appendRecord(const Options& options, const RunOutput& out)
{
    std::ofstream os(options.results, std::ios::app);
    os << "{\"workload\": " << JsonWriter::quote(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << options.seconds
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"host\": " << hostRecordJson(options)
       << ", \"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed
       << ", \"results_digest\": " << JsonWriter::quote(out.resultsDigest)
       << ", \"counts\": " << mapJson(out.counts)
       << ", \"details\": " << mapJson(out.details)
       << ", \"metrics\": " << metricsJson(out) << "}\n";
}

bool
parseUnsigned(const std::string& text, std::uint64_t& value)
{
    char* end = nullptr;
    value = std::strtoull(text.c_str(), &end, 10);
    return !text.empty() && *end == '\0';
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::string(argv[1]) == "compare") {
        if (argc != 4 && argc != 6)
            return usage();
        std::string benchmark = "BENCHMARK.json";
        if (argc == 6) {
            if (std::string(argv[4]) != "--benchmark")
                return usage();
            benchmark = argv[5];
        }
        try {
            return compareResults(argv[2], argv[3], benchmark);
        } catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
    }

    Options options;
    bool have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--plant-mismatch") {
            options.plantMismatch = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        std::string value = argv[++i];
        std::uint64_t number = 0;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, options.seed))
                return usage();
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, number) || number == 0 ||
                number > 3600)
                return usage();
            options.seconds = static_cast<unsigned>(number);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage();
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--jcached") {
            options.jcached = value;
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--results") {
            options.results = value;
        } else if (flag == "--commit") {
            options.commit = value;
        } else if (flag == "--source-digest") {
            options.sourceDigest = value;
        } else {
            return usage();
        }
    }
    if (!have_seconds || !have_trace)
        return usage();

    std::signal(SIGTERM, stopDaemonsAndExit);
    std::signal(SIGINT, stopDaemonsAndExit);
    RunOutput out;
    Spans::arm(options.trace);
    auto start = Clock::now();
    try {
        if (options.workload == "paper-grid")
            out = runPaperGrid(options);
        else if (options.workload == "assoc-grid")
            out = runAssocGrid(options);
        else if (options.workload == "served-mix")
            out = runServedMix(options);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    Spans::arm(false);

    if (options.trace) {
        std::map<std::string, double> self = Spans::selfSeconds();
        for (const char* layer :
             {"trace", "sim", "core", "service", "net", "store", "bench"})
            out.add(std::string(layer) + ".self_s", self[layer], "s");
        Spans::save(options.workDir + "/spans-" + options.workload +
                    "-seed" + std::to_string(options.seed) + ".json");
        out.details["spans"] = static_cast<double>(Spans::count());
    }
    out.details["run_s"] = secondsSince(start);
    if (!options.results.empty())
        appendRecord(options, out);

    std::cout << options.workload << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << ": "
              << out.attempted << " attempted, " << out.failed
              << " failed\n";
    for (const Metric& m : out.metrics)
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    for (const auto& [key, value] : out.details)
        std::cout << "  (" << key << " = " << value << ")\n";
    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed
              << ", \"metrics\": " << metricsJson(out) << "}" << std::endl;
    return out.correct ? 0 : 1;
}
