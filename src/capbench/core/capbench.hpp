// capbench — umbrella header.
//
// A framework for evaluating packet capturing systems, reproducing
// F. Schneider, "Performance evaluation of packet capturing systems for
// high-speed networks" (TU München, 2005 / CoNEXT'05).  See README.md and
// DESIGN.md for the architecture and EXPERIMENTS.md for the reproduced
// results.
#pragma once

#include "capbench/bpf/analysis/cfg.hpp"
#include "capbench/bpf/analysis/fact_table.hpp"
#include "capbench/bpf/analysis/liveness.hpp"
#include "capbench/bpf/analysis/optimize.hpp"
#include "capbench/bpf/asm_text.hpp"
#include "capbench/bpf/decoded.hpp"
#include "capbench/bpf/program_cache.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/filter/lexer.hpp"
#include "capbench/bpf/filter/parser.hpp"
#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/validator.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/capture/bsd_bpf.hpp"
#include "capbench/capture/linux_socket.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/capture/nic.hpp"
#include "capbench/capture/os.hpp"
#include "capbench/dist/builtin.hpp"
#include "capbench/dist/createdist.hpp"
#include "capbench/dist/size_histogram.hpp"
#include "capbench/dist/two_stage_dist.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/harness/parallel.hpp"
#include "capbench/harness/report.hpp"
#include "capbench/harness/sut.hpp"
#include "capbench/harness/testbed.hpp"
#include "capbench/hostsim/arch.hpp"
#include "capbench/hostsim/machine.hpp"
#include "capbench/load/disk.hpp"
#include "capbench/load/loads.hpp"
#include "capbench/load/minideflate.hpp"
#include "capbench/net/headers.hpp"
#include "capbench/net/link.hpp"
#include "capbench/net/packet.hpp"
#include "capbench/net/switch.hpp"
#include "capbench/net/wire.hpp"
#include "capbench/pcap/file.hpp"
#include "capbench/pcap/session.hpp"
#include "capbench/pktgen/pktgen.hpp"
#include "capbench/profiling/cpusage.hpp"
#include "capbench/profiling/trimusage.hpp"
#include "capbench/report/json.hpp"
#include "capbench/scenario/registry.hpp"
#include "capbench/scenario/runner.hpp"
#include "capbench/scenario/scenario.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench {

inline constexpr const char* kVersion = "1.0.0";

}  // namespace capbench
