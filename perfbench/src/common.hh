/**
 * @file
 * Shared pieces of the repository benchmark: timing helpers, the
 * correctness tally every workload folds its checks into, the metric
 * report printed as the result line, and the in-memory span recorder
 * of the traced run.
 */

#ifndef TCORAM_PERFBENCH_COMMON_HH
#define TCORAM_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Nearest-rank quantile of @p v (copied; q in [0, 1]: 0 is the
 *  minimum, 1 the maximum). */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/** Peak resident set of this process so far, in MB (VmHWM). */
double peakRssMb();

/** One scenario's host time or throughput samples, as measured and at
 *  the reference host speed of HostSpeed. */
struct Rates
{
    std::vector<double> raw;
    std::vector<double> atRefSpeed;
};

/**
 * Correctness tally: every check is one attempt, every failed check
 * one failure. A run with any failure is not correct.
 */
class Checks
{
  public:
    /** Count one attempt; on failure count it and say what failed. */
    void expect(bool ok, const std::string &what);
    /** Count @p attempted attempts of which @p failed failed. */
    void tally(std::uint64_t attempted, std::uint64_t failed,
               const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Named metrics in insertion order (the result line's "metrics"). */
class Report
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value);

    /** A figure printed with the metrics but kept out of the result
     *  line. */
    void note(const std::string &name, const std::string &unit,
              double value);

    /** One human-readable line per metric and per note. */
    void print() const;
    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json(const Checks &checks) const;

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        double value;
    };
    std::vector<Entry> entries_;
    std::vector<Entry> notes_;
};

/**
 * Spans of the traced run, kept in memory and written out when the run
 * ends. A span's layer is its name up to the first '.', so the layers
 * are the src/ module names. Spans of one logical access or KV
 * operation share an op id. Thread-safe: grid cells open spans from
 * the worker threads.
 */
class SpanRecorder
{
  public:
    static constexpr std::int32_t kNoParent = -1;

    SpanRecorder();

    /** Open a span now; @return its handle for close(). */
    std::int32_t open(const char *name, std::int32_t parent,
                      std::uint64_t op);
    void close(std::int32_t span);

    /**
     * Self time per layer in seconds: each span's duration minus the
     * union of its children's intervals inside it, summed by layer.
     */
    std::vector<std::pair<std::string, double>> selfSecondsByLayer() const;

    /** Union of the root spans' intervals, in seconds. */
    double rootCoverageSeconds() const;

    /** CSV: id,parent,op,name,start_ns,end_ns. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int32_t parent;
        std::uint64_t op;
    };

    std::int64_t nowNs() const;

    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/** RAII span: opened on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, std::int32_t parent,
               std::uint64_t op = 0)
        : rec_(rec), id_(rec.open(name, parent, op))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int32_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    std::int32_t id_;
};

/** FNV-1a accumulator for determinism digests. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void bytes(const void *p, std::size_t n);
    template <typename T>
    void value(const T &v)
    {
        bytes(&v, sizeof(v));
    }
};

} // namespace perfbench

#endif // TCORAM_PERFBENCH_COMMON_HH
