/**
 * @file
 * jcache-trace: generate, inspect and convert trace files.
 *
 * Usage:
 *   jcache-trace generate <workload> <out.jct> [--scale N] [--seed S]
 *   jcache-trace export <trace | workload> <out.txt>
 *       [--scale N] [--seed S]
 *   jcache-trace import <in> <out.jct> [--name NAME]
 *   jcache-trace info <trace.jct> [--json [path]]
 *   jcache-trace summary <trace> [--json [path]]
 *   jcache-trace head <trace> [count]
 *   jcache-trace --version
 *
 * --json re-emits the info/summary fields as one JSON document (to
 * stdout, or to a path), spelled exactly as in every other jcache
 * tool.
 *
 * `generate` and `import` write JCRC, the one binary trace format
 * (docs/TRACE_FORMAT.md).  `info` reads only the file header (format,
 * version, record count, workload name) of a JCRC or raw JCTR file,
 * decoding no record; `summary` loads the records and prints the
 * full reference-mix statistics.
 *
 * `export` writes a trace (an existing file of any kind, or a
 * workload generated on the fly) in the text interchange encoding;
 * `import` converts any trace file into JCRC.  export -> import
 * round-trips exactly: the re-imported record stream is identical, so
 * simulations over it are byte-identical.  summary/head accept any
 * trace file.
 *
 * Workloads: ccom grr yacc met linpack liver
 *            kvstore bfs marksweep
 *            gemm-streaming gemm-blocked
 *            callburst-global callburst-percall callburst-windows
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "trace/file_io.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "trace/summary.hh"
#include "util/logging.hh"
#include "util/version.hh"
#include "workloads/callburst.hh"
#include "workloads/gemm.hh"
#include "workloads/workload.hh"

namespace
{

using namespace jcache;

std::unique_ptr<workloads::Workload>
makeAnyWorkload(const std::string& name,
                const workloads::WorkloadConfig& config)
{
    if (name == "gemm-streaming") {
        return std::make_unique<workloads::GemmWorkload>(config,
                                                         false);
    }
    if (name == "gemm-blocked")
        return std::make_unique<workloads::GemmWorkload>(config, true);
    if (name == "callburst-global") {
        return std::make_unique<workloads::CallBurstWorkload>(
            config, workloads::CallConvention::GlobalAllocation);
    }
    if (name == "callburst-percall") {
        return std::make_unique<workloads::CallBurstWorkload>(
            config, workloads::CallConvention::PerCallSaves);
    }
    if (name == "callburst-windows") {
        return std::make_unique<workloads::CallBurstWorkload>(
            config, workloads::CallConvention::RegisterWindows);
    }
    return workloads::makeWorkload(name, config);
}

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  jcache-trace generate <workload> <out.jct> "
        "[--scale N] [--seed S]\n"
        "  jcache-trace export <trace | workload> <out.txt> "
        "[--scale N] [--seed S]\n"
        "  jcache-trace import <in> <out.jct> [--name NAME]\n"
        "  jcache-trace info <trace.jct> [--json [path]]\n"
        "  jcache-trace summary <trace> [--json [path]]\n"
        "  jcache-trace head <trace> [count]\n"
        "  jcache-trace --version\n";
    return 2;
}

/**
 * The workload flags of generate and export (`--scale N`, `--seed S`)
 * after the two positional arguments; nullopt for anything else.
 */
std::optional<workloads::WorkloadConfig>
parseWorkloadFlags(int argc, char** argv)
{
    workloads::WorkloadConfig config;
    for (int i = 4; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--scale" && i + 1 < argc) {
            config.scale = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (flag == "--seed" && i + 1 < argc) {
            config.seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            return std::nullopt;
        }
    }
    return config;
}

int
cmdGenerate(int argc, char** argv)
{
    std::optional<workloads::WorkloadConfig> config =
        parseWorkloadFlags(argc, argv);
    if (argc < 4 || !config)
        return usage();
    auto workload = makeAnyWorkload(argv[2], *config);
    trace::Trace trace = workloads::generateTrace(*workload);
    trace::writeReplayCache(trace, argv[3]);
    std::cout << "wrote " << trace.size() << " records ("
              << workload->description() << ") to " << argv[3] << "\n";
    return 0;
}

int
cmdExport(int argc, char** argv)
{
    std::optional<workloads::WorkloadConfig> config =
        parseWorkloadFlags(argc, argv);
    if (argc < 4 || !config)
        return usage();
    // A trace file of any kind, or a workload generated on demand.
    const std::string source = argv[2];
    trace::Trace trace =
        std::filesystem::exists(source)
            ? trace::loadAnyTrace(source)
            : workloads::generateTrace(*makeAnyWorkload(source, *config));
    trace::saveTraceText(trace, argv[3]);
    std::cout << "exported " << trace.size() << " records ("
              << trace.name() << ") to " << argv[3] << "\n";
    return 0;
}

int
cmdImport(int argc, char** argv)
{
    if (argc < 4)
        return usage();
    std::string name;
    for (int i = 4; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--name" && i + 1 < argc)
            name = argv[++i];
        else
            return usage();
    }
    trace::Trace trace = trace::loadAnyTrace(argv[2]);
    if (!name.empty())
        trace.setName(name);
    trace::writeReplayCache(trace, argv[3]);
    std::cout << "imported " << trace.size() << " records ("
              << trace.name() << ") to " << argv[3] << "\n";
    return 0;
}

int
cmdInfo(int argc, char** argv)
{
    if (argc < 3)
        return usage();
    tools::CommonFlags common;
    for (int i = 3; i < argc; ++i)
        if (!tools::parseCommonFlag(argc, argv, i, tools::kFlagJson,
                                    common))
            return usage();
    // Header only: no record is decoded.
    trace::TraceFileInfo info = trace::loadTraceInfo(argv[2]);
    std::uintmax_t file_bytes = std::filesystem::file_size(argv[2]);

    if (common.json) {
        tools::writeJsonSink(common, [&](std::ostream& os) {
            stats::JsonWriter json(os);
            json.beginObject();
            json.field("file", std::string(argv[2]));
            json.field("workload", info.name);
            json.field("format", info.format);
            json.field("version", static_cast<double>(info.version));
            json.field("records", static_cast<double>(info.records));
            json.field("file_bytes",
                       static_cast<double>(file_bytes));
            json.endObject();
        });
        return 0;
    }

    stats::TextTable table("trace file: " + std::string(argv[2]));
    table.setHeader({"field", "value"});
    table.addRow({"workload", info.name});
    table.addRow({"format", info.format});
    table.addRow({"version", std::to_string(info.version)});
    table.addRow({"records", std::to_string(info.records)});
    table.addRow({"file bytes", std::to_string(file_bytes)});
    table.print(std::cout);
    return 0;
}

int
cmdSummary(int argc, char** argv)
{
    if (argc < 3)
        return usage();
    tools::CommonFlags common;
    for (int i = 3; i < argc; ++i)
        if (!tools::parseCommonFlag(argc, argv, i, tools::kFlagJson,
                                    common))
            return usage();
    trace::Trace trace = trace::loadAnyTrace(argv[2]);
    trace::TraceSummary s = trace::summarize(trace);

    if (common.json) {
        tools::writeJsonSink(common, [&](std::ostream& os) {
            stats::JsonWriter json(os);
            json.beginObject();
            json.field("trace", trace.name());
            json.field("records", static_cast<double>(trace.size()));
            json.field("instructions",
                       static_cast<double>(s.instructions));
            json.field("reads", static_cast<double>(s.reads));
            json.field("writes", static_cast<double>(s.writes));
            json.field("read_bytes",
                       static_cast<double>(s.readBytes));
            json.field("write_bytes",
                       static_cast<double>(s.writeBytes));
            json.field("loads_per_store", s.loadStoreRatio());
            json.field("refs_per_instruction",
                       s.refsPerInstruction());
            json.endObject();
        });
        return 0;
    }

    stats::TextTable table("trace: " + trace.name());
    table.setHeader({"metric", "value"});
    table.addRow({"records", std::to_string(trace.size())});
    table.addRow({"instructions", std::to_string(s.instructions)});
    table.addRow({"data reads", std::to_string(s.reads)});
    table.addRow({"data writes", std::to_string(s.writes)});
    table.addRow({"read bytes", std::to_string(s.readBytes)});
    table.addRow({"write bytes", std::to_string(s.writeBytes)});
    table.addRow({"loads per store",
                  stats::formatFixed(s.loadStoreRatio(), 2)});
    table.addRow({"refs per instruction",
                  stats::formatFixed(s.refsPerInstruction(), 3)});
    table.print(std::cout);
    return 0;
}

int
cmdHead(int argc, char** argv)
{
    if (argc < 3)
        return usage();
    std::size_t count = argc > 3
        ? std::strtoull(argv[3], nullptr, 10)
        : 20;
    trace::Trace trace = trace::loadAnyTrace(argv[2]);
    count = std::min(count, trace.size());
    for (std::size_t i = 0; i < count; ++i) {
        const trace::TraceRecord& r = trace[i];
        std::cout << (r.type == trace::RefType::Read ? "R " : "W ")
                  << std::hex << "0x" << r.addr << std::dec << " +"
                  << static_cast<unsigned>(r.size) << "B  (+"
                  << r.instrDelta << " instr)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    std::string command = argv[1];
    if (command == "--version") {
        std::cout << jcache::versionLine("jcache-trace") << "\n";
        return 0;
    }
    try {
        if (command == "generate")
            return cmdGenerate(argc, argv);
        if (command == "export")
            return cmdExport(argc, argv);
        if (command == "import")
            return cmdImport(argc, argv);
        if (command == "info")
            return cmdInfo(argc, argv);
        if (command == "summary")
            return cmdSummary(argc, argv);
        if (command == "head")
            return cmdHead(argc, argv);
    } catch (const jcache::FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
