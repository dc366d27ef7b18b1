/**
 * @file
 * perfbench harness entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --out RESULTS.json [--trace-out SPANS.json] [--tiny]
 *
 * Runs one workload, then writes the raw measurements, the simulated
 * outputs and digests to check, and (traced runs) the per-layer metrics
 * to RESULTS.json. perfbench/run.py builds this binary, runs it, checks
 * the outputs and prints the benchmark's metrics; see perfbench/README.md.
 */

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"

namespace perfbench {

double
Spans::total(const std::string &name) const
{
    double s = 0.0;
    for (const Span &sp : spans_)
        if (sp.name == name)
            s += sp.dur;
    return s;
}

std::size_t
Spans::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &sp : spans_)
        n += sp.name == name;
    return n;
}

bool
Spans::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &sp = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f}",
                     i ? "," : "", sp.name.c_str(),
                     static_cast<unsigned long long>(sp.op),
                     sp.start * 1e6, sp.dur * 1e6);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

void
OutputLog::record(const std::string &key, double value, std::uint64_t op)
{
    res_.outputs.push_back({key, value, op, table_});
    const auto [it, fresh] = first_.emplace(key, value);
    if (!fresh && std::memcmp(&it->second, &value, sizeof value) != 0)
        res_.fail(op, "output " + key + " differs between passes");
}

namespace {

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
writeResults(const std::string &path, const Options &opt,
             const Result &res)
{
    std::ofstream out(path);
    out << "{\n\"workload\": " << quote(opt.workload)
        << ",\n\"seed\": " << opt.seed
        << ",\n\"trace\": " << (opt.trace ? "true" : "false")
        << ",\n\"tiny\": " << (opt.tiny ? "true" : "false")
        << ",\n\"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
        << ",\n\"compiler\": " << quote(PERFBENCH_COMPILER)
        << ",\n\"op_unit\": " << quote(res.opUnit)
        << ",\n\"ops\": " << res.window.ops
        << ",\n\"elapsed_s\": " << number(res.window.wallS)
        << ",\n\"cpu_s\": " << number(res.window.cpuS)
        << ",\n\"attempted\": " << res.attempted;

    const auto list = [&](const char *name,
                          const std::vector<double> &v) {
        out << ",\n" << quote(name) << ": [";
        for (std::size_t i = 0; i < v.size(); ++i)
            out << (i ? ", " : "") << number(v[i]);
        out << "]";
    };
    list("setup_s", res.setupS);
    list("op_ms", res.opMs);

    out << ",\n\"failed_ops\": [";
    for (auto it = res.failedOps.begin(); it != res.failedOps.end(); ++it)
        out << (it == res.failedOps.begin() ? "" : ", ") << *it;
    out << "]";

    out << ",\n\"failures\": [";
    for (std::size_t i = 0; i < res.failures.size(); ++i)
        out << (i ? ", " : "") << quote(res.failures[i]);
    out << "]";

    out << ",\n\"outputs\": [";
    for (std::size_t i = 0; i < res.outputs.size(); ++i) {
        const Output &o = res.outputs[i];
        out << (i ? ",\n  " : "\n  ") << "[" << quote(o.key) << ", "
            << number(o.value) << ", " << o.op << ", " << quote(o.table)
            << "]";
    }
    out << "]";

    out << ",\n\"digests\": [";
    for (std::size_t i = 0; i < res.digests.size(); ++i) {
        const auto &[key, value, op] = res.digests[i];
        out << (i ? ",\n  " : "\n  ") << "[" << quote(key) << ", "
            << quote(value) << ", " << op << "]";
    }
    out << "]";

    const auto object = [&](const char *name,
                            const std::map<std::string, double> &map) {
        out << ",\n" << quote(name) << ": {";
        bool first = true;
        for (const auto &[k, v] : map) {
            out << (first ? "\n  " : ",\n  ") << quote(k) << ": "
                << number(v);
            first = false;
        }
        out << "}";
    };
    object("layers", res.layers);
    object("info", res.info);
    out << "\n}\n";
    return static_cast<bool>(out);
}

/**
 * Peak resident set of this process from /proc/self/status (VmHWM).
 * getrusage's ru_maxrss would also count the parent's resident set,
 * which survives the exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * Moves the calling thread round-robin over the CPUs it may run on,
 * every kCpuRotatePeriod, from a helper thread. On a shared VM each
 * vCPU slows down on its own, by up to 2x for seconds at a time, and
 * the kernel keeps a lone busy thread on one vCPU: a single-threaded
 * workload would take all of that vCPU's noise. Rotating makes every
 * run see the average vCPU. Threads the rotated thread starts inherit
 * its affinity, so only the single-threaded workloads are rotated.
 */
class CpuRotor
{
  public:
    CpuRotor() : tid_(static_cast<pid_t>(syscall(SYS_gettid)))
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
        if (cpus_.size() > 1)
            thread_ = std::thread([this] { rotate(); });
    }

    ~CpuRotor()
    {
        if (!thread_.joinable())
            return;
        {
            const std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_.notify_one();
        thread_.join();
        sched_setaffinity(tid_, sizeof all_, &all_);
    }

    CpuRotor(const CpuRotor &) = delete;
    CpuRotor &operator=(const CpuRotor &) = delete;

  private:
    void
    rotate()
    {
        std::unique_lock<std::mutex> lock(m_);
        for (std::size_t i = 0;
             !cv_.wait_for(lock, kCpuRotatePeriod,
                           [this] { return stop_; });
             ++i) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[i % cpus_.size()], &one);
            sched_setaffinity(tid_, sizeof one, &one);
        }
    }

    const pid_t tid_;
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out PATH [--trace-out PATH] [--tiny]\n"
                 "workloads: server_sweep server_stream fleet_mixed "
                 "prep_functional\n");
    return 2;
}

/**
 * Refuse builds and environments that would change what is measured:
 * unoptimized or sanitized code, and TB_PARALLEL_SOLVER, which switches
 * every FluidNetwork to the parallel scan when it is constructed.
 */
const char *
environmentProblem()
{
#ifndef NDEBUG
    return "assertions enabled (Debug-style build)";
#endif
#ifndef __OPTIMIZE__
    return "unoptimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
    if (std::getenv("TB_PARALLEL_SOLVER"))
        return "TB_PARALLEL_SOLVER is set; unset it";
    return nullptr;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--tiny") {
            opt.tiny = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--out") {
            opt.outPath = argv[++i];
        } else if (arg == "--trace-out") {
            opt.tracePath = argv[++i];
        } else {
            return usage();
        }
    }
    if (opt.outPath.empty() || !(opt.seconds > 0.0))
        return usage();
    if (const char *problem = environmentProblem()) {
        std::fprintf(stderr, "perfbench: refusing to run: %s\n", problem);
        return 3;
    }

    Result res;
    if (opt.workload == "prep_functional") {
        res = runPrepFunctional(opt);
    } else {
        const CpuRotor rotor;
        if (opt.workload == "server_sweep")
            res = runServerSweep(opt);
        else if (opt.workload == "server_stream")
            res = runServerStream(opt);
        else if (opt.workload == "fleet_mixed")
            res = runFleetMixed(opt);
        else
            return usage();
    }
    if (opt.trace)
        probeMissingLayers(opt, res);

    res.info["peak_rss_mb"] = peakRssMb();
    res.info["nproc"] = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));

    if (!writeResults(opt.outPath, opt, res)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.outPath.c_str());
        return 4;
    }
    return 0;
}
