#include "trace.h"

#include <fstream>
#include <iomanip>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Span::Span(Tracer &tracer, std::string name) : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    Record r;
    r.name = std::move(name);
    r.parent = tracer_.open_.empty()
                   ? -1
                   : static_cast<std::int64_t>(tracer_.open_.back());
    index_ = tracer_.records_.size();
    tracer_.records_.push_back(std::move(r));
    tracer_.open_.push_back(index_);
    // Read the clock last so the bookkeeping above is not timed.
    tracer_.records_[index_].startS =
        seconds(tracer_.origin_, Clock::now());
}

Tracer::Span::~Span()
{
    if (!tracer_.enabled_)
        return;
    const double end = seconds(tracer_.origin_, Clock::now());
    Record &r = tracer_.records_[index_];
    r.durS = end - r.startS;
    tracer_.open_.pop_back();
}

void
Tracer::addAggregate(std::string name, std::uint64_t calls, double secs)
{
    if (!enabled_)
        return;
    Record r;
    r.name = std::move(name);
    r.startS = seconds(origin_, Clock::now());
    r.durS = secs;
    r.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    r.calls = calls;
    records_.push_back(std::move(r));
}

double
Tracer::total(const std::string &name) const
{
    double s = 0.0;
    for (const Record &r : records_)
        if (r.name == name)
            s += r.durS;
    return s;
}

double
Tracer::rootSeconds() const
{
    double s = 0.0;
    for (const Record &r : records_)
        if (r.parent < 0)
            s += r.durS;
    return s;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"spans\": [\n" << std::setprecision(9);
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << r.name
            << "\", \"start_s\": " << r.startS << ", \"end_s\": "
            << r.startS + r.durS << ", \"parent\": " << r.parent
            << ", \"calls\": " << r.calls << "}"
            << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
