/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own files, around calls into
 * the library's layers: name, start, duration and the span that was
 * open when it began (its parent). Calls too frequent to record one by
 * one (RasHook callbacks, per-tick fleet steps) are timed by the caller
 * and added as one aggregate record carrying the call count. Records
 * stay in memory and are written out once, at the end of the run.
 *
 * A disabled Tracer records nothing; its spans cost one branch, so the
 * same workload code serves the timed and the traced runs.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed from `t0` to `t1`. */
inline double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

class Tracer
{
  public:
    /** One span or aggregate. `parent` is -1 for a root record. */
    struct Record
    {
        std::string name;
        double startS = 0.0; ///< Offset from the tracer's origin.
        double durS = 0.0;
        std::int64_t parent = -1;
        std::uint64_t calls = 1; ///< > 1 only for aggregates.
    };

    /** Closes its span when destroyed. */
    class Span
    {
      public:
        Span(Tracer &tracer, std::string name);
        ~Span();

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
        std::size_t index_ = 0;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; it closes at the end of the caller's scope. */
    [[nodiscard]] Span span(std::string name)
    {
        return Span(*this, std::move(name));
    }

    /** Add `calls` caller-timed calls totalling `secs` as one record,
     *  child of the innermost open span. */
    void addAggregate(std::string name, std::uint64_t calls, double secs);

    /** Total seconds of every record named `name`. */
    double total(const std::string &name) const;

    /** Summed duration of the root records (the per-layer cover). */
    double rootSeconds() const;

    const std::vector<Record> &records() const { return records_; }

    /** Write every record as one JSON document. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<std::size_t> open_; ///< Indices of unclosed spans.
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
