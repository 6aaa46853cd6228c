// Implementation of the `wsn-inspect` command-line tool.
//
// The logic lives in the library (not in tools/wsn_inspect.cpp) so tests can
// drive every subcommand in-process against string streams; the binary is a
// thin main() over run_inspect().
//
//   wsn-inspect flows TRACE [--limit N]
//   wsn-inspect perf FILE [--top N] [--json PATH]
//   wsn-inspect critical-path TRACE
//   wsn-inspect energy-map TRACE [--side N] [--top N]
//   wsn-inspect histogram TRACE [--buckets N]
//   wsn-inspect check TRACE [--metrics FILE]
//   wsn-inspect convert TRACE --out PATH [--format jsonl|wtr]
//   wsn-inspect info TRACE
//
// TRACE is a JSONL file, a wtr file, or a streamed segment directory
// (obs/stream_sink.h); the flow-based analyses retire a flow once idle for
// analyze::kRetireLag (1024) time units, so memory tracks live flows.
//   wsn-inspect bench-compare --baseline FILE --current FILE [--tolerance 10%]
//                [--wallclock-tolerance P] [--bench ID]
//
// Exit codes: 0 ok, 1 findings (failed check / regression), 2 usage or I/O
// error.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace wsn::obs::analyze {

int run_inspect(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

}  // namespace wsn::obs::analyze
