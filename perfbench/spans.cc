#include "spans.hh"

#include <algorithm>
#include <functional>
#include <thread>

#include "obs/json.hh"

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int
SpanRecorder::open(const std::string &name, long cell, int parent)
{
    auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
    std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = threads_.emplace(tid, threads_.size());
    Span span;
    span.name = name;
    span.startNs = now;
    span.endNs = now;
    span.parent = parent;
    span.cell = cell;
    span.thread = it->second;
    spans_.push_back(std::move(span));
    return int(spans_.size() - 1);
}

void
SpanRecorder::close(int id)
{
    auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[std::size_t(id)].endNs = now;
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer(std::size_t first) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[std::size_t(spans_[i].parent)].push_back(int(i));

    std::map<std::string, double> self;
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Union of the children's intervals, clipped to the span.
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        for (int c : children[i])
            covered.emplace_back(
                std::max(spans_[std::size_t(c)].startNs, span.startNs),
                std::min(spans_[std::size_t(c)].endNs, span.endNs));
        std::sort(covered.begin(), covered.end());
        std::int64_t cover = 0;
        std::int64_t reach = span.startNs;
        for (auto [begin, end] : covered) {
            begin = std::max(begin, reach);
            if (end > begin) {
                cover += end - begin;
                reach = end;
            }
        }
        std::string layer = span.name.substr(0, span.name.find('.'));
        self[layer] += double(span.endNs - span.startNs - cover) * 1e-9;
    }
    return self;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back(double(span.endNs - span.startNs) * 1e-9);
    return out;
}

void
SpanRecorder::writeChromeTrace(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &stamp) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    wbsim::obs::JsonWriter json(os, 0);
    json.beginObject();
    json.field("displayTimeUnit", "ns");
    json.key("metadata").beginObject();
    for (const auto &[key, value] : stamp)
        json.field(key, value);
    json.endObject();
    json.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        json.beginObject();
        json.field("name", span.name);
        json.field("cat", span.name.substr(0, span.name.find('.')));
        json.field("ph", "X");
        json.field("ts", double(span.startNs) * 1e-3);
        json.field("dur", double(span.endNs - span.startNs) * 1e-3);
        json.field("pid", 1);
        json.field("tid", span.thread);
        json.key("args").beginObject();
        json.field("id", std::int64_t(i));
        json.field("parent", std::int64_t(span.parent));
        json.field("cell", std::int64_t(span.cell));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

} // namespace perfbench
