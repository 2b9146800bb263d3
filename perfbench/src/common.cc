#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        throw std::runtime_error("quantile of an empty sample");
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::runtime_error("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void
Checks::expect(bool ok, const std::string &what)
{
    tally(1, ok ? 0 : 1, what);
}

void
Checks::tally(std::uint64_t attempted, std::uint64_t failed,
              const std::string &what)
{
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0)
        std::fprintf(stderr, "FAIL: %s (%llu of %llu)\n", what.c_str(),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted));
}

void
Report::add(const std::string &name, const std::string &unit, double value)
{
    for (const Entry &e : entries_)
        if (e.name == name)
            throw std::logic_error("metric reported twice: " + name);
    entries_.push_back({name, unit, value});
}

void
Report::note(const std::string &name, const std::string &unit, double value)
{
    notes_.push_back({name, unit, value});
}

void
Report::print() const
{
    for (const Entry &e : entries_)
        std::printf("metric %-34s %18.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    for (const Entry &e : notes_)
        std::printf("note   %-34s %18.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

std::string
Report::json(const Checks &checks) const
{
    std::string out = "{\"correct\": ";
    out += checks.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted());
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    char num[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        if (!std::isfinite(e.value))
            throw std::runtime_error("metric is not finite: " + e.name);
        std::snprintf(num, sizeof(num), "%.17g", e.value);
        out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + num +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    out += "}}";
    return out;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now())
{
    spans_.reserve(1 << 16);
}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::int32_t
SpanRecorder::open(const char *name, std::int32_t parent, std::uint64_t op)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, -1, parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
SpanRecorder::close(std::int32_t span)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(span)).endNs = t;
}

namespace {

/** Total length of the union of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0, curStart = 0, curEnd = -1;
    for (const auto &[s, e] : iv) {
        if (s > curEnd) {
            if (curEnd > curStart)
                total += curEnd - curStart;
            curStart = s;
            curEnd = e;
        } else {
            curEnd = std::max(curEnd, e);
        }
    }
    if (curEnd > curStart)
        total += curEnd - curStart;
    return total;
}

} // namespace

std::vector<std::pair<std::string, double>>
SpanRecorder::selfSecondsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent != kNoParent)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    std::map<std::string, std::int64_t> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            throw std::logic_error(std::string("span never closed: ") +
                                   s.name);
        for (auto &[a, b] : kids[i]) {
            a = std::clamp(a, s.startNs, s.endNs);
            b = std::clamp(b, s.startNs, s.endNs);
        }
        const std::string name(s.name);
        self[name.substr(0, name.find('.'))] +=
            (s.endNs - s.startNs) - unionLength(std::move(kids[i]));
    }
    std::vector<std::pair<std::string, double>> out;
    for (const auto &[layer, ns] : self)
        out.emplace_back(layer, static_cast<double>(ns) * 1e-9);
    return out;
}

double
SpanRecorder::rootCoverageSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::int64_t, std::int64_t>> roots;
    for (const Span &s : spans_)
        if (s.parent == kNoParent)
            roots.emplace_back(s.startNs, s.endNs);
    return static_cast<double>(unionLength(std::move(roots))) * 1e-9;
}

void
SpanRecorder::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write spans to " + path);
    f << "id,parent,op,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << i << ',' << s.parent << ',' << s.op << ',' << s.name << ','
          << s.startNs << ',' << s.endNs << '\n';
    }
    if (!f)
        throw std::runtime_error("short write of spans to " + path);
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 1099511628211ull;
}

} // namespace perfbench
