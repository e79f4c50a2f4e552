// Result table formatting for the figure benches.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "capbench/harness/experiment.hpp"

namespace capbench::harness {

/// Fixed-width text table.
class Table {
public:
    explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

    void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

    void print(std::ostream& out) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// "fig_6_3  (20/33) increased-buffers: ..." style banner.
void print_figure_banner(std::ostream& out, const std::string& figure_id,
                         const std::string& caption);

/// Prints a sweep as the thesis plots it: one row per x value (column
/// `x_label`, axis_labels().column), per SUT the capture rate and CPU
/// usage.  With `multi_app`, worst/avg/best capture-rate columns per SUT
/// (Figures 6.7-6.9).
void print_sweep(std::ostream& out, const std::string& x_label,
                 const std::vector<PointResult>& rows, bool multi_app = false);

/// The Figure 2.4 inventory table of the four sniffers.
void print_sut_inventory(std::ostream& out, const std::vector<SutConfig>& suts);

std::string format_pct(double v);

/// Writes a sweep as whitespace-separated gnuplot data: column 1 is the x
/// value, then per SUT capture% (worst/avg/best with `multi_app`) and
/// cpu%.  A `# ` header line names the columns.
void write_gnuplot_data(std::ostream& out, const std::vector<PointResult>& rows,
                        bool multi_app = false);

/// Writes a ready-to-run gnuplot script plotting `data_file` in the
/// thesis's linespoints style (capture rate left axis, CPU right axis).
/// `x_label` names the sweep axis (axis_labels().gnuplot); with
/// `multi_app` the columns follow write_gnuplot_data's worst/avg/best
/// layout and the avg series is plotted.
void write_gnuplot_script(std::ostream& out, const std::string& data_file,
                          const std::string& title, const std::vector<PointResult>& rows,
                          const std::string& x_label = "Datarate [Mbit/s]",
                          bool multi_app = false);

}  // namespace capbench::harness
