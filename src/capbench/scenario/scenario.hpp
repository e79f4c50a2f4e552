// Scenario descriptors: every reproduced figure/table is *data* — an id
// matching the thesis numbering, a caption, a sweep axis, SUT mutations
// and RunConfig deltas — executed by one engine (scenario/runner.hpp)
// instead of 20+ copy-pasted figure main()s.
//
// Two scenario shapes exist:
//  * sweep scenarios run the Section 3.4 measurement cycle over an x-axis
//    (data rate, buffer size or queue count) for one or more variants
//    (e.g. the single/dual-processor (a)/(b) sub-figures), and
//  * custom scenarios (the Chapter 4 workload tables and the Figure 6.13
//    disk benchmark) produce labelled tables directly.
// Both render through the shared report path (text, gnuplot, JSON).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "capbench/harness/experiment.hpp"

namespace capbench::scenario {

using harness::Axis;
using harness::PointResult;

/// One experiment line of a sweep scenario: a SUT roster plus RunConfig
/// deltas.  `suffix` keys output files ("fig_6_2(a).dat") and JSON
/// variant entries; it is empty for single-variant scenarios.
struct Variant {
    std::string name;    // human label, e.g. "single processor mode"
    std::string suffix;  // file/banner suffix, e.g. "(a)"
    std::function<std::vector<harness::SutConfig>()> suts;
    std::function<void(harness::RunConfig&)> tweak;  // optional config deltas
};

/// A labelled table for non-sweep figures.
struct TableData {
    std::string title;  // optional sub-table heading
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

struct CustomResult {
    std::vector<TableData> tables;
    std::string notes;  // free text printed (and exported) after the tables
};

struct Scenario {
    std::string id;       // thesis numbering: "fig_6_2", "fig_b_1", "ext_10gbe"
    std::string caption;  // the figure caption
    Axis axis = Axis::kRateMbps;
    std::vector<double> sweep;  // x values along `axis`
    bool multi_app = false;     // worst/avg/best columns (Figures 6.7-6.9)
    std::vector<Variant> variants;
    /// Extra context printed before the runs (SUT inventory, the Figure
    /// 6.6 optimizer comparison, ...).
    std::function<void(std::ostream&)> preamble;
    /// Free text printed after the results (the ext_* conclusions).
    std::string postscript;
    /// Non-null for custom (table) scenarios; `variants` is empty then.
    std::function<CustomResult()> custom;

    [[nodiscard]] bool is_custom() const { return static_cast<bool>(custom); }
    [[nodiscard]] const char* x_label() const { return harness::axis_labels(axis).column; }
};

struct VariantResult {
    std::string name;
    std::string suffix;
    std::vector<PointResult> points;
};

/// Everything the report layer needs to render a scenario: the resolved
/// descriptor fields plus the measured data and run metadata.
struct ScenarioResult {
    std::string id;
    std::string caption;
    std::string x_label;
    bool multi_app = false;
    bool is_custom = false;
    std::vector<VariantResult> variants;  // sweep scenarios
    CustomResult table;                   // custom scenarios
    std::string postscript;
    // Run metadata (the "config" block of the JSON document).
    std::uint64_t packets = 0;
    int reps = 1;
    std::uint64_t base_seed = 1;
    int jobs = 1;
};

}  // namespace capbench::scenario
