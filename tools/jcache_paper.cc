/**
 * @file
 * jcache-paper: print the paper's 25 figures and 3 tables.
 *
 * Usage:
 *   jcache-paper [group...] [--jobs N] [--csv path] [--version]
 *
 * The paper is printed in eleven groups (kGroups below; docs/FIGURES.md
 * maps every figure and table to its group).  With no group named all
 * eleven print, otherwise the named ones, always in paper order.  Each
 * figure prints as a text table, each group ends with its paper
 * reference note, and --csv writes the series of every printed figure
 * to one file.  No --jobs value changes a byte of the output.
 *
 * Exit status: 0 on success; 1 when Figure 17 finds a violation
 * (after every selected group has printed) or on a runtime error; 2
 * on a usage error.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "core/hw_cost.hh"
#include "sim/experiments.hh"
#include "sim/parallel.hh"
#include "stats/csv.hh"
#include "stats/table.hh"
#include "util/logging.hh"
#include "util/version.hh"

namespace
{

using namespace jcache;

/** Where a group's figures go: stdout, and the --csv file if open. */
struct Output
{
    std::ofstream csv;

    /** Print one figure as an aligned table; mirror it to the CSV. */
    void figure(const sim::FigureData& figure, int precision = 1)
    {
        stats::TextTable table(figure.title);
        std::vector<std::string> header{figure.xAxis};
        header.insert(header.end(), figure.xLabels.begin(),
                      figure.xLabels.end());
        table.setHeader(header);
        for (const sim::Series& s : figure.series) {
            if (s.label == "average")
                table.addSeparator();
            table.addRow(s.label, s.values, precision);
        }
        table.print(std::cout);
        std::cout << '\n';

        if (!csv.is_open())
            return;
        stats::CsvWriter writer(csv);
        header.front() = figure.title;
        writer.writeRow(header);
        for (const sim::Series& s : figure.series)
            writer.writeRow(s.label, s.values);
    }
};

bool
table1(Output&)
{
    stats::TextTable table(
        "Table 1: test program characteristics (reconstructed "
        "workloads)");
    table.setHeader({"program", "dyn. instr", "data reads",
                     "data writes", "total refs", "ld/st", "refs/instr"});

    auto add = [&](const std::string& name,
                   const trace::TraceSummary& summary) {
        table.addRow({name, std::to_string(summary.instructions),
                      std::to_string(summary.reads),
                      std::to_string(summary.writes),
                      std::to_string(summary.references()),
                      stats::formatFixed(summary.loadStoreRatio(), 2),
                      stats::formatFixed(summary.refsPerInstruction(),
                                         2)});
    };
    trace::TraceSummary total;
    for (const auto& [name, summary] :
         sim::table1Characteristics(sim::TraceSet::standard())) {
        add(name, summary);
        total.instructions += summary.instructions;
        total.reads += summary.reads;
        total.writes += summary.writes;
    }
    table.addSeparator();
    add("total", total);
    table.print(std::cout);

    std::cout << "\nPaper (Table 1): 484.5M instr, 132.8M reads, "
                 "54.8M writes; loads:stores ~2.4:1.\n"
                 "Reconstructed workloads are ~10-100x shorter by "
                 "design; ratios are the comparable quantity.\n";
    return true;
}

bool
fig01_02(Output& out)
{
    const sim::TraceSet& traces = sim::TraceSet::standard();
    out.figure(sim::figure1WritesToDirtyVsLineSize(traces));
    out.figure(sim::figure2WritesToDirtyVsCacheSize(traces));
    std::cout <<
        "Paper reference: write-back removes the majority of writes "
        "on average;\ngrr/yacc/met reach >=80% at larger sizes while "
        "linpack/liver stay near the\n~50% two-doubles-per-16B-line "
        "spatial ceiling until the matrix fits (>=64KB).\n";
    return true;
}

bool
fig03_04(Output& out)
{
    out.figure(sim::storePipelineComparison(sim::TraceSet::standard()), 4);
    std::cout <<
        "Values are CPI added by store handling (lower is better).\n"
        "Paper reference (Section 3/3.1): probe-then-write costs up "
        "to a cycle per store\nwhen memory ops are back to back; the "
        "delayed-write register recovers nearly\nall of it, leaving "
        "only probe-miss and read-miss flushes.\n";
    return true;
}

bool
fig05(Output& out)
{
    out.figure(sim::figure5WriteBufferSweep(sim::TraceSet::standard()), 2);
    std::cout <<
        "Paper reference: merging only becomes significant when "
        "entries linger, but then\nthe buffer is nearly always full "
        "and store stalls dominate (the paper's example:\n50% merging "
        "needs a 38-cycle retire interval at ~7 CPI of stalls).  A "
        "write cache\nmerges comparably with zero stalls.\n";
    return true;
}

bool
fig07_09(Output& out)
{
    const sim::TraceSet& traces = sim::TraceSet::standard();
    out.figure(sim::figure7WriteCacheAbsolute(traces));
    out.figure(sim::figure8WriteCacheRelative(traces));
    out.figure(sim::figure9WriteCacheVsWbSize(traces));
    std::cout <<
        "Paper reference: a five-entry write cache removes ~40% of "
        "all writes (~63% of\nwhat a 4KB write-back cache removes); "
        "relative effectiveness declines slowly as\nthe comparison "
        "write-back cache grows (72% vs 1KB to 49% vs 32KB).\n";
    return true;
}

bool
fig10_11(Output& out)
{
    const sim::TraceSet& traces = sim::TraceSet::standard();
    out.figure(sim::figure10WriteMissShareVsCacheSize(traces));
    out.figure(sim::figure11WriteMissShareVsLineSize(traces));
    std::cout <<
        "Paper reference: write misses account for about one third "
        "of all misses on\naverage — stores are about as likely to "
        "miss as loads despite being ~2.4x rarer.\n";
    return true;
}

bool
fig13_16(Output& out)
{
    const sim::TraceSet& traces = sim::TraceSet::standard();
    for (auto figures :
         {sim::figure13WriteMissReductionVsCacheSize,
          sim::figure14TotalMissReductionVsCacheSize,
          sim::figure15WriteMissReductionVsLineSize,
          sim::figure16TotalMissReductionVsLineSize}) {
        for (const sim::FigureData& f : figures(traces))
            out.figure(f);
    }
    std::cout <<
        "Paper reference: write-validate removes >90% of write "
        "misses on average\n(write-around 40-70%, write-invalidate "
        "30-50%); total-miss reductions average\n~30-35% / 15-25% / "
        "10-20% for 8-128KB caches with 16B lines, shrinking as\n"
        "lines grow.  Write-around can exceed 100% (liver at "
        "32-64KB) by also avoiding\nread misses.\n";
    return true;
}

bool
fig17(Output&)
{
    const sim::TraceSet& traces = sim::TraceSet::standard();
    unsigned checked = 0;
    unsigned failed = 0;
    std::vector<std::string> violations;
    auto verify = [&](Count size, unsigned line) {
        if (!sim::verifyFigure17PartialOrder(traces, size, line,
                                             &violations))
            ++failed;
        ++checked;
    };
    for (Count size : sim::standardCacheSizes())
        verify(size, 16);
    for (unsigned line : sim::standardLineSizes())
        verify(8 * 1024, line);

    std::cout << "Figure 17: partial order of fetch traffic\n"
              << "  write-validate <= write-invalidate <= "
                 "fetch-on-write;  write-around <= write-invalidate\n"
              << "  checked " << checked
              << " configurations x 6 benchmarks: "
              << (failed == 0 ? "ALL HOLD" : "VIOLATIONS FOUND")
              << "\n";
    for (const std::string& v : violations)
        std::cout << "  violation: " << v << "\n";
    return failed == 0;
}

bool
fig18_19(Output& out)
{
    const sim::TraceSet& traces = sim::TraceSet::standard();
    out.figure(sim::figure18TrafficVsCacheSize(traces), 4);
    out.figure(sim::figure19TrafficVsLineSize(traces), 4);
    std::cout <<
        "Values are back-side transactions per instruction (the "
        "paper plots these on a\nlog axis).  Paper reference: "
        "write-through traffic is store-dominated and varies\nby "
        "less than ~2x across both sweeps; write-back traffic = read "
        "misses + write\nmisses + dirty victims, with victims "
        "typically a third of the total.\n";
    return true;
}

bool
fig20_25(Output& out)
{
    const sim::TraceSet& t = sim::TraceSet::standard();
    out.figure(sim::figure20VictimsDirtyVsCacheSize(t, false));
    out.figure(sim::figure20VictimsDirtyVsCacheSize(t, true));
    out.figure(sim::figure21BytesDirtyInDirtyVictimVsCacheSize(t, false));
    out.figure(sim::figure21BytesDirtyInDirtyVictimVsCacheSize(t, true));
    out.figure(sim::figure22BytesDirtyPerVictimVsCacheSize(t));
    out.figure(sim::figure23VictimsDirtyVsLineSize(t, true));
    out.figure(sim::figure24BytesDirtyInDirtyVictimVsLineSize(t, true));
    out.figure(sim::figure25BytesDirtyPerVictimVsLineSize(t));
    std::cout <<
        "Paper reference: ~50% of victims dirty on average (wide "
        "per-program spread);\nbytes dirty within a dirty 16B victim "
        "rise ~70->90% with cache size; with line\nsize the dirty "
        "fraction falls from 100% at 4B lines to ~40-65% at 32-64B "
        "—\nmotivating subblock dirty bits for long lines.\n";
    return true;
}

bool
table3(Output&)
{
    core::HwCostParams params;
    stats::TextTable table(
        "Table 3 (quantified): storage bits for high-performance "
        "write-through vs write-back");
    table.setHeader({"config", "org", "data", "tags", "valid",
                     "dirty", "protect", "buffers", "total",
                     "overhead%"});

    for (Count kb : {4u, 8u, 16u, 32u}) {
        core::CacheConfig config;
        config.sizeBytes = kb * 1024;
        config.lineBytes = 16;

        auto add = [&](const std::string& org,
                       const core::HwCost& cost) {
            table.addRow(
                {stats::formatSize(config.sizeBytes) + "/16B " + org,
                 org, std::to_string(cost.dataBits),
                 std::to_string(cost.tagBits),
                 std::to_string(cost.validBits),
                 std::to_string(cost.dirtyBits),
                 std::to_string(cost.protectionBits),
                 std::to_string(cost.bufferBits),
                 std::to_string(cost.totalBits()),
                 stats::formatFixed(100.0 * cost.overheadFraction(),
                                    1)});
        };
        add("WT", core::writeThroughCost(config, params));
        add("WB", core::writeBackCost(config, params));
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout <<
        "\nWT = write-through + parity + 4-entry write buffer + "
        "5-entry write cache.\nWB = write-back + word ECC + line "
        "dirty bits + dirty-victim and delayed-write\nregisters.  "
        "Paper reference (Section 3.3): the WT cache's extra buffer "
        "entries\nare offset by the WB cache's dirty bits and "
        "heavier ECC, leaving totals within\na few percent; parity "
        "is 2/3 the overhead of ECC and tolerates more errors.\n";
    return true;
}

/** One part of the paper; false from `print` means a violation. */
struct Group
{
    const char* name;
    bool (*print)(Output&);
};

const Group kGroups[] = {
    {"table1", table1},     {"fig01_02", fig01_02},
    {"fig03_04", fig03_04}, {"fig05", fig05},
    {"fig07_09", fig07_09}, {"fig10_11", fig10_11},
    {"fig13_16", fig13_16}, {"fig17", fig17},
    {"fig18_19", fig18_19}, {"fig20_25", fig20_25},
    {"table3", table3},
};

int
usage()
{
    std::cerr << "usage: jcache-paper [group...] "
              << tools::commonUsage(tools::kFlagJobs)
              << " [--csv path] [--version]\n  groups:";
    for (const Group& g : kGroups)
        std::cerr << ' ' << g.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    constexpr std::size_t kNumGroups = std::size(kGroups);
    std::vector<bool> selected(kNumGroups, false);
    bool any_selected = false;
    std::string csv_path;
    tools::CommonFlags common;

    try {
        for (int i = 1; i < argc; ++i) {
            if (tools::parseCommonFlag(argc, argv, i, tools::kFlagJobs,
                                       common))
                continue;
            std::string arg = argv[i];
            if (arg == "--version") {
                std::cout << versionLine("jcache-paper") << "\n";
                return 0;
            }
            if (arg == "--csv") {
                if (i + 1 >= argc)
                    return usage();
                csv_path = argv[++i];
                continue;
            }
            std::size_t g = 0;
            while (g < kNumGroups && arg != kGroups[g].name)
                ++g;
            if (g == kNumGroups)
                return usage();
            selected[g] = true;
            any_selected = true;
        }
        sim::setDefaultJobs(common.jobs);

        Output out;
        if (!csv_path.empty()) {
            out.csv.open(csv_path);
            fatalIf(!out.csv, "cannot open --csv file: " + csv_path);
        }
        bool ok = true;
        for (std::size_t g = 0; g < kNumGroups; ++g) {
            if (!any_selected || selected[g])
                ok = kGroups[g].print(out) && ok;
        }
        fatalIf(out.csv.is_open() && !out.csv.flush(),
                "cannot write --csv file: " + csv_path);
        return ok ? 0 : 1;
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
