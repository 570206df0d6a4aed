// Output checks of the end-to-end benchmark. Each checker works only from
// what the benchmark itself sent and received (and, for the trace match, from
// the collector's decoded trace), never from stored copies of earlier output:
// app invariants follow from the request semantics documented in
// src/apps/app.h, so a checker fails exactly when the program misbehaves.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/server/rollover.h"
#include "src/trace/trace.h"

namespace perfbench {

using karousos::Value;

// One request as the client saw it.
struct Exchange {
  size_t shard = 0;  // Worker the request's connection was assigned to.
  size_t conn = 0;
  uint64_t seq = 0;
  Value input;
  Value response;
  size_t responses = 0;  // Response frames received for this request.
  double sent_s = 0;     // Client clock, seconds.
  double received_s = 0;
};

// Every check returns "" when it holds and a one-line reason otherwise.

// Every request got exactly one response.
std::string CheckOneResponseEach(const std::vector<Exchange>& exchanges);

// The (input, response) pairs the client saw on one shard's connections equal,
// as multisets, the (request, response) pairs of that shard's trace.
std::string CheckTraceMatches(const std::vector<const Exchange*>& shard,
                              const std::vector<karousos::TraceEvent>& events);

// Stacks, per shard: at most one {"new":true} per dump, and every count is at
// most the number of successful submits of that dump.
std::string CheckStacks(const std::vector<const Exchange*>& shard);

// Auction at serializable, per shard: every verify is stable, an accepted
// bid's high equals its amount, and a bids value seen for an item (query,
// verify, list) is at most the non-retry bids sent to that item.
std::string CheckAuction(const std::vector<const Exchange*>& shard);

// Wiki, per shard: a cached render of a page equals an uncached render of the
// same page whose request was sent before the cached render was received.
std::string CheckWiki(const std::vector<const Exchange*>& shard);

// Dispatches to the app's invariant checker ("" for apps without one).
std::string CheckAppInvariants(const std::string& app, const std::vector<const Exchange*>& shard);

// What one `karousos audit` process reported.
struct AuditOutcome {
  int exit_code = -1;
  std::string output;  // Captured standard output.
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
};

// The CLI's verdict, read from its exit code and its verdict line. A copy
// counts as accepted only with exit code 0 and an "ACCEPTED:" line, and as
// rejected only with exit code 1 and a "REJECTED:" line.
bool VerdictAccepted(const AuditOutcome& outcome);
bool VerdictRejected(const AuditOutcome& outcome);

// Replaces the payload of request `rid`'s response event in a decoded trace.
// Returns false when the trace holds no such response or it already is
// `forged`.
bool ForgeResponse(karousos::EpochSlices* slices, karousos::RequestId rid, const Value& forged);

// Re-encodes decoded slices as raw (v1) containers, trace then advice — the
// canonical bytes two decodings are compared by.
std::vector<uint8_t> RawBytes(const karousos::EpochSlices& slices);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
