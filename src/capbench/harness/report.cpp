#include "capbench/harness/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace capbench::harness {

std::string format_pct(double v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%5.1f", v);
    return buf;
}

void Table::print(std::ostream& out) const {
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    const auto print_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string& cell = c < cells.size() ? cells[c] : std::string{};
            out << cell;
            for (std::size_t pad = cell.size(); pad < widths[c] + 2; ++pad) out << ' ';
        }
        out << '\n';
    };
    print_row(headers_);
    std::size_t total = 0;
    for (const auto w : widths) total += w + 2;
    out << std::string(total, '-') << '\n';
    for (const auto& row : rows_) print_row(row);
}

void print_figure_banner(std::ostream& out, const std::string& figure_id,
                         const std::string& caption) {
    out << "\n=== " << figure_id << " ===\n" << caption << "\n\n";
}

namespace {

/// The per-SUT columns of a sweep, in the order every sweep output uses:
/// capture rate (worst/avg/best with `multi_app`), then CPU usage.
std::vector<const char*> sut_columns(bool multi_app) {
    if (multi_app) return {"worst", "avg", "best", "cpu"};
    return {"cap", "cpu"};
}

std::vector<double> sut_values(const SutRunResult& sut, bool multi_app) {
    if (multi_app)
        return {sut.capture_worst_pct, sut.capture_avg_pct, sut.capture_best_pct, sut.cpu_pct};
    return {sut.capture_avg_pct, sut.cpu_pct};
}

}  // namespace

void print_sweep(std::ostream& out, const std::string& x_label,
                 const std::vector<PointResult>& rows, bool multi_app) {
    if (rows.empty()) return;
    std::vector<std::string> headers{x_label};
    for (const auto& sut : rows.front().result.suts)
        for (const char* column : sut_columns(multi_app))
            headers.push_back(sut.name + " " + column + "%");
    Table table{std::move(headers)};
    for (const auto& row : rows) {
        std::vector<std::string> cells;
        char x[32];
        std::snprintf(x, sizeof x, "%.0f", row.x);
        cells.emplace_back(x);
        for (const auto& sut : row.result.suts)
            for (const double v : sut_values(sut, multi_app)) cells.push_back(format_pct(v));
        table.add_row(std::move(cells));
    }
    table.print(out);
}

void write_gnuplot_data(std::ostream& out, const std::vector<PointResult>& rows,
                        bool multi_app) {
    if (rows.empty()) return;
    out << "# x";
    for (const auto& sut : rows.front().result.suts)
        for (const char* column : sut_columns(multi_app)) out << ' ' << sut.name << '_' << column;
    out << '\n';
    for (const auto& row : rows) {
        out << row.x;
        for (const auto& sut : row.result.suts)
            for (const double v : sut_values(sut, multi_app)) out << ' ' << v;
        out << '\n';
    }
}

void write_gnuplot_script(std::ostream& out, const std::string& data_file,
                          const std::string& title, const std::vector<PointResult>& rows,
                          const std::string& x_label, bool multi_app) {
    if (rows.empty()) return;
    out << "set title '" << title << "'\n"
        << "set xlabel '" << x_label << "'\n"
        << "set ylabel 'Capturing Rate [%]'\n"
        << "set y2label 'CPU usage [%]'\n"
        << "set y2tics\n set yrange [0:105]\n set y2range [0:105]\n set key outside\n";
    out << "plot ";
    const auto& suts = rows.front().result.suts;
    // Column layout matches write_gnuplot_data: x, then per SUT either
    // cap,cpu or worst,avg,best,cpu.
    const std::size_t per_sut = sut_columns(multi_app).size();
    for (std::size_t i = 0; i < suts.size(); ++i) {
        const std::size_t first_col = 2 + i * per_sut;
        const std::size_t cap_col = multi_app ? first_col + 1 : first_col;  // avg series
        const std::size_t cpu_col = first_col + per_sut - 1;
        if (i > 0) out << ", \\\n     ";
        out << "'" << data_file << "' using 1:" << cap_col << " with linespoints title '"
            << suts[i].name << (multi_app ? " avg%'" : " cap%'");
        out << ", '" << data_file << "' using 1:" << cpu_col
            << " axes x1y2 with lines dashtype 2 title '" << suts[i].name << " cpu%'";
    }
    out << '\n';
}

void print_sut_inventory(std::ostream& out, const std::vector<SutConfig>& suts) {
    Table table{{"Name", "Architecture", "OS", "CPUs", "HT", "Stack", "Buffer"}};
    for (const auto& sut : suts) {
        std::string buffer = sut.buffer_bytes == 0
                                 ? "default"
                                 : std::to_string(sut.buffer_bytes / 1024) + " kB";
        table.add_row({sut.name, sut.arch->name, sut.os->name, std::to_string(sut.cores),
                       sut.hyperthreading ? "on" : "off",
                       sut.stack == StackKind::kMmap ? "mmap" : "native", std::move(buffer)});
    }
    table.print(out);
}

}  // namespace capbench::harness
