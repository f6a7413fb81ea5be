#include "obs/report.h"

#include <algorithm>

#include "obs/json.h"

namespace jrs::obs {

void
ReportSet::put(Run run)
{
    const std::lock_guard<std::mutex> lock(mu_);
    for (Run &r : runs_) {
        if (r.label == run.label) {
            r = std::move(run);
            return;
        }
    }
    runs_.push_back(std::move(run));
}

std::size_t
ReportSet::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return runs_.size();
}

std::vector<ReportSet::Run>
ReportSet::sorted() const
{
    std::vector<Run> runs;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        runs = runs_;
    }
    std::sort(runs.begin(), runs.end(), [](const Run &a, const Run &b) {
        return a.label < b.label;
    });
    return runs;
}

std::string
ReportSet::toJson() const
{
    const std::vector<Run> runs = sorted();
    std::string out = "{\n  \"schema\": \"" + schema_
        + "\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        out += runs[i].json;
        out += i + 1 < runs.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
ReportSet::writeJson(const std::string &path) const
{
    writeTextFile(path, toJson(), schema_ + " report");
}

void
ReportSet::writeFolded(const std::string &path) const
{
    const std::vector<Run> runs = sorted();
    std::string out;
    for (const Run &run : runs) {
        for (const FoldedLine &l : run.folded) {
            if (runs.size() > 1)
                out += run.label + ';';
            out += l.stack + ' ' + std::to_string(l.value) + '\n';
        }
    }
    writeTextFile(path, out, schema_ + " folded stacks");
}

std::vector<FoldedLine>
ReportSet::folded(const std::string &label) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Run &r : runs_) {
        if (r.label == label)
            return r.folded;
    }
    return {};
}

} // namespace jrs::obs
