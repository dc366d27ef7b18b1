/**
 * @file
 * Shared types of the perfbench harness: the run options, the in-memory
 * span recorder, and the result every workload fills in.
 *
 * The harness only measures. It times the calls it makes into the
 * program's public functions with steady_clock, keeps spans in memory,
 * and writes one results file that run.py checks against the stored
 * references and turns into the reported metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string outPath;
    std::string tracePath;
};

using Clock = std::chrono::steady_clock;

/**
 * How often the single-threaded workloads' thread moves to the next CPU
 * (CpuRotor in main.cc).
 */
constexpr std::chrono::milliseconds kCpuRotatePeriod{50};

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds consumed by the calling thread so far. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** splitmix64: a small, portable generator for seeded input orders. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Fisher-Yates shuffle, identical on every standard library. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

    /** A shuffled 0..n-1. */
    std::vector<std::size_t>
    permutation(std::size_t n)
    {
        std::vector<std::size_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = i;
        shuffle(v);
        return v;
    }

  private:
    std::uint64_t s_;
};

/**
 * Spans recorded around calls into the program's layers. Spans stay in
 * memory; writeChromeTrace() dumps them once the run is over.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t op; ///< operation the span belongs to
        double start;     ///< seconds since the recorder was created
        double dur;       ///< seconds
    };

    /** RAII span; records nothing when the recorder is null. */
    class Scope
    {
      public:
        Scope(Spans *spans, const char *name, std::uint64_t op)
            : spans_(spans), name_(name), op_(op)
        {
            if (spans_)
                t0_ = Clock::now();
        }
        ~Scope()
        {
            if (spans_)
                spans_->add(name_, op_, t0_, Clock::now());
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *spans_;
        const char *name_;
        std::uint64_t op_;
        Clock::time_point t0_;
    };

    void
    add(const char *name, std::uint64_t op, Clock::time_point t0,
        Clock::time_point t1)
    {
        const auto rel = [&](Clock::time_point t) {
            return std::chrono::duration<double>(t - origin_).count();
        };
        spans_.push_back({name, op, rel(t0), rel(t1) - rel(t0)});
    }

    /** Total seconds and span count per name. */
    double total(const std::string &name) const;
    std::size_t count(const std::string &name) const;

    /** Mean span duration in milliseconds (0 when none recorded). */
    double
    meanMs(const std::string &name) const
    {
        const std::size_t n = count(name);
        return n ? 1e3 * total(name) / static_cast<double>(n) : 0.0;
    }

    /** Chrome trace-event JSON; one track per operation. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Operations completed in a measured window, with its wall and CPU time. */
struct Window
{
    std::uint64_t ops = 0;
    double wallS = 0.0;
    double cpuS = 0.0;

    double opsPerS() const { return wallS > 0.0 ? ops / wallS : 0.0; }

    Window
    operator+(const Window &o) const
    {
        return {ops + o.ops, wallS + o.wallS, cpuS + o.cpuS};
    }
};

/** Tracing overhead: untraced ops/s over traced ops/s, in percent. */
inline double
overheadPct(const Window &plain, const Window &traced)
{
    const double b = traced.opsPerS();
    return b > 0.0 ? 100.0 * (plain.opsPerS() / b - 1.0) : 0.0;
}

/** One simulated output run.py compares with a stored reference. */
struct Output
{
    std::string key;
    double value;
    std::uint64_t op; ///< the operation that produced it
    /** references.json table; empty means the workload's own. */
    std::string table;
};

/** Everything one workload run reports back to run.py. */
struct Result
{
    /** Set-up time samples (seconds); run.py reports their median. */
    std::vector<double> setupS;

    /** Per-operation latency samples and what one sample covers. */
    std::vector<double> opMs;
    std::string opUnit;

    /** The measured window (both halves of a traced run). */
    Window window;

    /**
     * Operations attempted, failed or not: every checked item gets an id
     * from newOp(), so this also counts warm-up and probe items.
     */
    std::uint64_t attempted = 0;

    /** Ids of operations that failed a check made in the harness. */
    std::set<std::uint64_t> failedOps;
    std::vector<std::string> failures;

    std::vector<Output> outputs;

    /** Output digests (key, digest, op) run.py compares with references. */
    std::vector<std::tuple<std::string, std::string, std::uint64_t>> digests;

    /** Per-layer metrics of the traced run (name -> value). */
    std::map<std::string, double> layers;

    /** Free-form facts about the run (sizes, counts). */
    std::map<std::string, double> info;

    std::uint64_t newOp() { return attempted++; }

    /** Operation @p op failed a check; an operation counts once. */
    void
    fail(std::uint64_t op, std::string why)
    {
        failedOps.insert(op);
        if (failures.size() < 20)
            failures.push_back(std::move(why));
    }
};

/**
 * Records a value for a simulated output and flags the operation when
 * the same key was seen before with a different value: repeated passes
 * and the traced half must reproduce every output bit for bit.
 */
class OutputLog
{
  public:
    explicit OutputLog(Result &res, std::string table = "")
        : res_(res), table_(std::move(table))
    {
    }

    void record(const std::string &key, double value, std::uint64_t op);

  private:
    Result &res_;
    std::string table_;
    std::map<std::string, double> first_;
};

/**
 * Traced runs report every layer. A layer the workload does not run is
 * measured by a probe: a small fixed piece of work through that layer,
 * traced after the workload. The probe's per-layer metrics, checked
 * items and outputs are kept; its timings are not the workload's.
 */
void probeMissingLayers(const Options &opt, Result &res);

/** The prep probe: a few batches through an executor, plus the kernels. */
Result probePrepLayers(std::uint64_t seed);

Result runServerSweep(const Options &opt);
Result runServerStream(const Options &opt);
Result runFleetMixed(const Options &opt);
Result runPrepFunctional(const Options &opt);

/**
 * Run a measured loop of about @p seconds: @p pass is called at least
 * @p minPasses times, and the window ends at the pass boundary nearest
 * to @p seconds. Each call returns the operations it completed.
 */
template <typename PassFn>
Window
measureLoop(double seconds, PassFn pass, std::size_t minPasses = 1)
{
    const auto t0 = Clock::now();
    const double cpu0 = threadCpuSeconds();
    Window w;
    std::size_t passes = 0;
    do {
        w.ops += pass();
        ++passes;
    } while (passes < minPasses ||
             secondsSince(t0) * (1.0 + 0.5 / passes) < seconds);
    w.wallS = secondsSince(t0);
    w.cpuS = threadCpuSeconds() - cpu0;
    return w;
}

/** Time one call of @p fn. */
template <typename Fn>
Window
once(Fn fn)
{
    return measureLoop(0.0, fn);
}

/** The two halves of a traced run. */
struct Paired
{
    Window plain, traced;
    std::size_t rounds = 0;
};

/**
 * The traced run's loop. Each round calls plain(k) then traced(k) for
 * every step k < @p steps, so every untraced step is paired with the
 * same step traced, back to back: host drift hits both alike and the
 * ratio of the two sums is the tracing overhead. Rounds repeat until
 * the round boundary nearest to @p seconds.
 */
template <typename PlainFn, typename TracedFn>
Paired
pairedLoop(double seconds, std::size_t steps, PlainFn plain,
           TracedFn traced)
{
    Paired p;
    const auto t0 = Clock::now();
    do {
        for (std::size_t k = 0; k < steps; ++k) {
            p.plain = p.plain + once([&] { return plain(k); });
            p.traced = p.traced + once([&] { return traced(k); });
        }
        ++p.rounds;
    } while (secondsSince(t0) * (1.0 + 0.5 / p.rounds) < seconds);
    return p;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
