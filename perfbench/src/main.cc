/**
 * @file
 * Benchmark binary: runs one workload for one seed and prints one JSON
 * record (its last line of output) with every metric, the digest of the
 * simulated outputs, the output checks and the host context.
 *
 *   citadel_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--spans PATH]
 *
 * --trace 0 repeats units of the workload until S seconds have passed
 * (at least kMinUnits), timing the host-speed reference (host_speed.h)
 * before and after each unit. The first unit warms caches and the
 * allocator and is left out of the throughput, which is the total work
 * of the other units over their host seconds at reference speed;
 * setup_s is the median over all units of their set-up seconds at
 * reference speed. --trace 1 runs one unit untraced, then one traced
 * and its explanation, and reports the per-layer metrics of
 * layerCatalog(); --spans writes the recorded spans there. The exit
 * status is 0 when every output check passed, 1 when one failed, 2 on
 * a usage error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "context.h"
#include "host_speed.h"
#include "percentile.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Units a timed run takes at least, however long they last: the
 *  warm-up unit and two measured ones. */
constexpr int kMinUnits = 3;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "citadel_perfbench: " << why
              << "\nusage: citadel_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n";
    std::exit(2);
}

u64
parseU64(const std::string &flag, const std::string &v)
{
    std::size_t used = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(v, &used, 10);
    } catch (const std::exception &) {
        usage(flag + ": not a whole number: " + v);
    }
    if (used != v.size() || v.empty() || v[0] == '-')
        usage(flag + ": not a whole number: " + v);
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + ": missing value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parseU64(flag, v);
        } else if (flag == "--seconds") {
            const u64 s = parseU64(flag, v);
            if (s < 1 || s > 3600)
                usage("--seconds: must be in [1, 3600]");
            a.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace: must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--spans") {
            a.spans = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            out += ' ';
        else
            out += ch;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Output
{
    std::string kind;
    Metric metric;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (!w)
        usage("unknown workload " + args.workload);

    std::vector<Output> out;
    std::vector<std::string> problems;
    u64 attempted = 0;
    u64 failed = 0;
    u64 digest = 0;
    int units = 0;
    const auto note = [&](const UnitResult &u) {
        attempted += u.attempted;
        failed += u.failed;
        problems.insert(problems.end(), u.problems.begin(),
                        u.problems.end());
    };

    if (!args.trace) {
        Tracer off(false);
        HostSpeedProbe probe;
        std::vector<double> setup_s;
        std::vector<double> setup_host_s;
        std::vector<double> work;
        std::vector<double> run_s;
        std::vector<double> speed;
        std::map<std::string, std::vector<double>> e2e;
        std::map<std::string, std::string> e2e_unit;
        const auto t0 = Clock::now();
        double before = probe.sample();
        do {
            const UnitResult u = w->runUnit(off);
            const double after = probe.sample();
            if (units == 0)
                digest = u.digest;
            else if (u.digest != digest)
                problems.push_back("digest of unit " + std::to_string(units) +
                                   " differs from unit 0 of the same seed");
            note(u);
            const double unit_speed = 0.5 * (before + after);
            setup_s.push_back(u.setupS * unit_speed);
            setup_host_s.push_back(u.setupS);
            if (units > 0) {
                work.push_back(u.work);
                run_s.push_back(u.runS);
                speed.push_back(unit_speed);
            }
            before = after;
            for (const Metric &m : u.e2e) {
                e2e[m.name].push_back(m.value);
                e2e_unit[m.name] = m.unit;
            }
            ++units;
        } while (units < kMinUnits ||
                 seconds(t0, Clock::now()) < args.seconds);

        const std::vector<double> unscaled(work.size(), 1.0);
        out.push_back({"end_to_end", {"setup_s", median(setup_s), "s"}});
        out.push_back({"end_to_end", {"peak_rss_mb", peakRssMb(), "MB"}});
        out.push_back({"end_to_end",
                       {"work_per_ref_s", referenceRate(work, run_s, speed),
                        "1/s"}});
        out.push_back({"workload",
                       {"work_per_s", referenceRate(work, run_s, unscaled),
                        "1/s"}});
        out.push_back({"workload", {"setup_host_s", median(setup_host_s), "s"}});
        out.push_back({"workload", {"host_speed", median(speed), "ratio"}});
        for (const auto &[name, values] : e2e)
            out.push_back({"workload", {name, median(values), e2e_unit[name]}});
    } else {
        Tracer off(false);
        const auto b0 = Clock::now();
        const UnitResult base = w->runUnit(off);
        const double base_s = seconds(b0, Clock::now());
        note(base);

        HostSpeedProbe probe;
        const double before = probe.sample();
        Tracer tr(true);
        const auto t0 = Clock::now();
        UnitResult u = w->runUnit(tr);
        const double traced_s = seconds(t0, Clock::now());
        w->explain(tr, u);
        const double wall = seconds(t0, Clock::now());
        const double after = probe.sample();
        note(u);
        units = 2;
        digest = u.digest;
        if (u.digest != base.digest)
            problems.push_back("digest differs with tracing on");

        std::map<std::string, double> values;
        for (const Metric &m : u.layers)
            values[m.name] = m.value;
        values["trace.wall_s"] = wall;
        values["trace.other_s"] = wall - tr.rootSeconds();
        values["trace.accounted_share"] = tr.rootSeconds() / wall;
        values["trace.overhead_pct"] = 100.0 * (traced_s - base_s) / base_s;
        values["host.speed"] = 0.5 * (before + after);
        values["pool.threads"] = w->threads();
        values["pool.cpu_per_wall"] = u.runS > 0.0 ? u.cpuS / u.runS : 0.0;

        std::set<std::string> known;
        for (const auto &[name, unit] : layerCatalog()) {
            known.insert(name);
            const auto it = values.find(name);
            out.push_back({"per_layer",
                           {name, it == values.end() ? 0.0 : it->second,
                            unit}});
        }
        for (const auto &[name, v] : values)
            if (!known.count(name))
                problems.push_back("metric " + name +
                                   " is missing from layerCatalog()");
        for (const Metric &m : u.e2e)
            out.push_back({"workload", m});

        if (!args.spans.empty() && !tr.write(args.spans))
            problems.push_back("cannot write spans to " + args.spans);
    }

    for (Output &o : out)
        if (!std::isfinite(o.metric.value)) {
            problems.push_back("metric " + o.metric.name + " is not finite");
            o.metric.value = 0.0;
        }

    std::ostringstream js;
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    js << "{\"workload\": " << jsonString(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"units\": " << units
       << ", \"work_unit\": " << jsonString(w->workUnit())
       << ", \"threads\": " << w->threads() << ", \"digest\": \"" << hex
       << "\", \"correct\": " << (problems.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"problems\": [";
    for (std::size_t i = 0; i < problems.size(); ++i)
        js << (i ? ", " : "") << jsonString(problems[i]);
    js << "], \"context\": {";
    const auto ctx = buildContext();
    for (std::size_t i = 0; i < ctx.size(); ++i)
        js << (i ? ", " : "") << jsonString(ctx[i].first) << ": "
           << jsonString(ctx[i].second);
    js << "}, \"metrics\": [";
    for (std::size_t i = 0; i < out.size(); ++i)
        js << (i ? ", " : "") << "{\"name\": " << jsonString(out[i].metric.name)
           << ", \"value\": " << jsonNumber(out[i].metric.value)
           << ", \"unit\": " << jsonString(out[i].metric.unit)
           << ", \"kind\": \"" << out[i].kind << "\"}";
    js << "]}";
    std::cout << js.str() << std::endl;
    return problems.empty() ? 0 : 1;
}
