// Tests for gnuplot/CSV report output and the pcap-trace input of
// createDist.
#include <gtest/gtest.h>

#include <sstream>

#include "capbench/dist/createdist.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/harness/report.hpp"
#include "capbench/pcap/file.hpp"

namespace capbench {
namespace {

using namespace harness;

std::vector<PointResult> tiny_sweep() {
    RunConfig cfg;
    cfg.packets = 4'000;
    cfg.rate_mbps = 100.0;
    std::vector<PointResult> rows;
    rows.push_back(PointResult{100.0, run_once({standard_sut("moorhen")}, cfg)});
    cfg.rate_mbps = 200.0;
    rows.push_back(PointResult{200.0, run_once({standard_sut("moorhen")}, cfg)});
    return rows;
}

TEST(GnuplotOutput, DataHasHeaderAndOneRowPerPoint) {
    const auto rows = tiny_sweep();
    std::ostringstream out;
    write_gnuplot_data(out, rows);
    std::istringstream in{out.str()};
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "# x moorhen_cap moorhen_cpu");
    std::string line;
    int data_lines = 0;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        ++data_lines;
        std::istringstream fields{line};
        double x = 0;
        double cap = 0;
        double cpu = 0;
        EXPECT_TRUE(fields >> x >> cap >> cpu) << line;
        EXPECT_GE(cap, 0.0);
        EXPECT_LE(cap, 100.0);
    }
    EXPECT_EQ(data_lines, 2);
}

TEST(GnuplotOutput, MultiAppEmitsWorstAvgBest) {
    auto rows = tiny_sweep();
    std::ostringstream out;
    write_gnuplot_data(out, rows, /*multi_app=*/true);
    EXPECT_NE(out.str().find("moorhen_worst moorhen_avg moorhen_best"), std::string::npos);
}

TEST(GnuplotOutput, ScriptReferencesDataColumns) {
    const auto rows = tiny_sweep();
    std::ostringstream out;
    write_gnuplot_script(out, "fig.dat", "test figure", rows);
    const std::string script = out.str();
    EXPECT_NE(script.find("set title 'test figure'"), std::string::npos);
    EXPECT_NE(script.find("'fig.dat' using 1:2"), std::string::npos);
    EXPECT_NE(script.find("axes x1y2"), std::string::npos);
}

TEST(GnuplotOutput, EmptySweepWritesNothing) {
    std::ostringstream out;
    write_gnuplot_data(out, {});
    write_gnuplot_script(out, "x.dat", "t", {});
    EXPECT_TRUE(out.str().empty());
}

TEST(CreateDistTrace, ReadsPcapAndSkipsNonIp) {
    std::stringstream buffer;
    pcap::FileWriter writer{buffer, 96};
    // Two IPv4 frames (wire 514 -> IP size 500) and one ARP frame.
    std::vector<std::byte> ip_frame(96);
    ip_frame[12] = std::byte{0x08};
    ip_frame[13] = std::byte{0x00};
    const net::Packet ip_packet{1, std::vector<std::byte>(ip_frame), sim::SimTime{}};
    pcap::Record rec;
    rec.caplen = 96;
    rec.wire_len = 514;
    rec.data = ip_frame;
    writer.write(rec);
    writer.write(rec);
    std::vector<std::byte> arp_frame(96);
    arp_frame[12] = std::byte{0x08};
    arp_frame[13] = std::byte{0x06};
    pcap::Record arp;
    arp.caplen = 96;
    arp.wire_len = 60;
    arp.data = arp_frame;
    writer.write(arp);

    const auto hist = dist::read_pcap_trace(buffer);
    EXPECT_EQ(hist.total(), 2u);
    EXPECT_EQ(hist.count(500), 2u);  // 514 wire - 14 Ethernet header
}

TEST(CreateDistTrace, EmptyTraceGivesEmptyHistogram) {
    std::stringstream buffer;
    pcap::FileWriter writer{buffer, 96};
    const auto hist = dist::read_pcap_trace(buffer);
    EXPECT_EQ(hist.total(), 0u);
}

TEST(CreateDistTrace, RejectsGarbage) {
    std::stringstream buffer{"this is not a pcap file at all"};
    EXPECT_THROW(dist::read_pcap_trace(buffer), std::runtime_error);
}

}  // namespace
}  // namespace capbench
