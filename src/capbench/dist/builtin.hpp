// Built-in packet size distributions.
#pragma once

#include <cstdint>

#include "capbench/dist/size_histogram.hpp"
#include "capbench/dist/two_stage_dist.hpp"

namespace capbench::dist {

/// Synthetic stand-in for the 24-hour MWN uplink trace of Section 4.2.1.
///
/// The original trace is not available; this histogram reproduces every
/// property the thesis documents about it (Figures 4.1/4.2):
///  * dominant peaks at 40, 52 and 1500 bytes (together > 55 % of packets),
///  * the "usual peaks at 40-64, 552, 576 and 1420-1500 bytes",
///  * the top 20 sizes account for over 75 % of all packets,
///  * no jumbo frames,
///  * a mean packet size of about 645 bytes (Section 6.3.1 computes the
///    expected buffer occupancy from exactly this average).
///
/// `total` scales the counts (default one million packets, the per-run
/// generation count of the measurements).
SizeHistogram mwn_trace_histogram(std::uint64_t total = 1'000'000);

/// The two-stage distribution of mwn_trace_histogram() at its default total
/// and the thesis parameters, built once per process on first use
/// (thread-safe) and never changed after.
const TwoStageDist& mwn_trace_dist();

/// Degenerate distribution: every packet has the same size (the classic
/// unmodified pktgen behaviour used as baseline in Section 4.1.3).
SizeHistogram fixed_size_histogram(std::uint32_t size, std::uint64_t total = 1'000'000);

}  // namespace capbench::dist
