// Trace persistence — a warts-lite line format for campaign output, so
// measurement and analysis can run in separate processes (the paper's
// dataset is published exactly this way; see their scamper warts files).
//
// Format, one record per line:
//   T <src> <dst> <flow> <reached:0|1> <unreachable:0|1>     -- trace start
//   H <ttl> <addr|*> <kind:x|e|u> <reply_ttl> <rtt_ms> [L<label>:<ttl>]...
//   .                                                        -- trace end
// Lines starting with '#' are comments.
#pragma once

#include <iosfwd>
#include <vector>

#include "probe/trace.h"

namespace wormhole::io {

void WriteTrace(std::ostream& os, const probe::TraceResult& trace);
void WriteTraces(std::ostream& os,
                 const std::vector<probe::TraceResult>& traces);

/// Reads every trace from the stream. Every malformed record — a bad
/// token, a number out of range (TTLs above 255, labels above 2^20 - 1),
/// a missing or extra field — throws a std::runtime_error that names its
/// line.
std::vector<probe::TraceResult> ReadTraces(std::istream& is);

}  // namespace wormhole::io
