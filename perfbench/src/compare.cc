/**
 * @file
 * The result-set comparer: `jcache-perfbench compare BEFORE AFTER`.
 *
 * Each argument is a JSONL file of result records (one per run, as
 * appended by --results).  For every workload and metric present in
 * both sets the comparer prints each side's median and quartiles and
 * the change of the medians against the metric's bound from
 * BENCHMARK.json.  A metric whose spread (interquartile range over
 * median) is wider than its bound on either side is unresolved, not
 * unchanged.  Sets recorded on different hosts are refused.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>

#include "perfbench.hh"
#include "service/json_value.hh"
#include "util/logging.hh"

namespace perfbench
{

using jcache::service::JsonValue;

namespace
{

struct Bound
{
    double bound = 0.0;
    bool higherIsBetter = false;
};

/** One result set: host identities and values per workload·metric. */
struct ResultSet
{
    std::set<std::string> hosts;
    std::map<std::string, std::map<std::string, std::vector<double>>> values;
    std::map<std::string, std::string> units;
};

std::map<std::string, Bound>
readBounds(const std::string& path)
{
    std::ifstream in(path);
    jcache::fatalIf(!in, "cannot read " + path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonValue doc = JsonValue::parse(text);
    std::map<std::string, Bound> bounds;
    for (const char* list : {"end_to_end", "per_layer"})
        for (const JsonValue& m : doc.get(list).items())
            bounds[m.getString("name")] =
                Bound{m.getNumber("bound", 0.0),
                      m.getString("better") == "higher"};
    return bounds;
}

ResultSet
readSet(const std::string& path, const std::map<std::string, Bound>& bounds)
{
    std::ifstream in(path);
    jcache::fatalIf(!in, "cannot read " + path);
    ResultSet set;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string error;
        JsonValue record = JsonValue::parse(line, &error);
        jcache::fatalIf(!record.isObject(), path + ": " + error);
        const JsonValue& host = record.get("host");
        set.hosts.insert(host.getString("cpu") + " / nproc " +
                         std::to_string(static_cast<int>(
                             host.getNumber("nproc", 0))));
        std::string workload = record.getString("workload");
        if (record.getNumber("trace", 0) != 0)
            workload += " (traced)";
        // JsonValue looks members up by key, so the metric names come
        // from BENCHMARK.json.
        const JsonValue& metrics = record.get("metrics");
        for (const auto& [name, bound] : bounds) {
            const JsonValue& m = metrics.get(name);
            if (!m.isObject())
                continue;
            set.values[workload][name].push_back(m.getNumber("value", 0));
            set.units[name] = m.getString("unit");
        }
    }
    return set;
}

/** Quartiles as Python's statistics.quantiles(values, n=4) gives them. */
std::vector<double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n == 1)
        return {v[0], v[0], v[0]};
    std::vector<double> q;
    const long m = n + 1;
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, n - 1);
        double delta = static_cast<double>(i * m - j * 4);
        q.push_back((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0);
    }
    return q;
}

} // namespace

int
compareResults(const std::string& before, const std::string& after,
               const std::string& benchmarkJson)
{
    std::map<std::string, Bound> bounds = readBounds(benchmarkJson);
    ResultSet a = readSet(before, bounds);
    ResultSet b = readSet(after, bounds);
    if (a.hosts != b.hosts || a.hosts.size() != 1) {
        std::cerr << "refusing to compare: the result sets come from "
                     "different hosts\n";
        for (const std::string& h : a.hosts)
            std::cerr << "  before: " << h << "\n";
        for (const std::string& h : b.hosts)
            std::cerr << "  after:  " << h << "\n";
        return 2;
    }

    bool regression = false;
    std::cout << std::left << std::setw(34) << "workload: metric"
              << std::right << std::setw(13) << "before" << std::setw(13)
              << "after" << std::setw(9) << "delta" << std::setw(8)
              << "bound" << "  verdict   (quartiles before | after)\n";
    for (const auto& [workload, metrics] : a.values) {
        auto other = b.values.find(workload);
        if (other == b.values.end())
            continue;
        for (const auto& [name, va] : metrics) {
            auto vb_it = other->second.find(name);
            if (vb_it == other->second.end())
                continue;
            std::vector<double> qa = quartiles(va);
            std::vector<double> qb = quartiles(vb_it->second);
            Bound bound = bounds[name];
            double delta = qa[1] != 0.0 ? (qb[1] - qa[1]) / qa[1] : 0.0;
            double worse = bound.higherIsBetter ? -delta : delta;
            double spread_a = qa[1] != 0.0 ? (qa[2] - qa[0]) / qa[1] : 0.0;
            double spread_b = qb[1] != 0.0 ? (qb[2] - qb[0]) / qb[1] : 0.0;
            std::string verdict = "-";
            if (bound.bound > 0.0) {
                if (std::fabs(spread_a) > bound.bound ||
                    std::fabs(spread_b) > bound.bound)
                    verdict = "unresolved";
                else if (worse > bound.bound)
                    verdict = "WORSE";
                else if (-worse > bound.bound)
                    verdict = "better";
                else
                    verdict = "within";
                regression = regression || verdict == "WORSE";
            }
            std::cout << std::left << std::setw(34)
                      << (workload + ": " + name) << std::right
                      << std::setprecision(5) << std::setw(13) << qa[1]
                      << std::setw(13) << qb[1] << std::setw(8)
                      << std::setprecision(3) << delta * 100.0 << "%"
                      << std::setw(8) << bound.bound << "  " << std::left
                      << std::setw(10) << verdict << std::right << " ("
                      << std::setprecision(5) << qa[0] << "–" << qa[2]
                      << " | " << qb[0] << "–" << qb[2] << " "
                      << a.units[name] << ", n=" << va.size() << "/"
                      << vb_it->second.size() << ")\n";
        }
    }
    return regression ? 1 : 0;
}

} // namespace perfbench
