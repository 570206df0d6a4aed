#include "perfbench/checks.h"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

using karousos::TraceEvent;

namespace {

using Pair = std::pair<Value, Value>;

bool PairLess(const Pair& a, const Pair& b) {
  if (a.first != b.first) {
    return a.first < b.first;
  }
  return a.second < b.second;
}

bool IsRetry(const Value& response) { return response.Field("retry").BoolOr(false); }

std::string Describe(const Exchange& e) {
  return "conn " + std::to_string(e.conn) + " seq " + std::to_string(e.seq) + " " +
         e.input.ToString() + " -> " + e.response.ToString();
}

}  // namespace

std::string CheckOneResponseEach(const std::vector<Exchange>& exchanges) {
  for (const Exchange& e : exchanges) {
    if (e.responses != 1) {
      return std::to_string(e.responses) + " responses for " + Describe(e);
    }
  }
  return "";
}

std::string CheckTraceMatches(const std::vector<const Exchange*>& shard,
                              const std::vector<TraceEvent>& events) {
  std::map<karousos::RequestId, Value> inputs;
  std::vector<Pair> traced;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEvent::Kind::kRequest) {
      if (!inputs.emplace(ev.rid, ev.payload).second) {
        return "trace has two requests with rid " + std::to_string(ev.rid);
      }
      continue;
    }
    auto it = inputs.find(ev.rid);
    if (it == inputs.end()) {
      return "trace response for unknown or repeated rid " + std::to_string(ev.rid);
    }
    traced.emplace_back(std::move(it->second), ev.payload);
    inputs.erase(it);
  }
  if (!inputs.empty()) {
    return std::to_string(inputs.size()) + " traced requests have no traced response";
  }
  std::vector<Pair> seen;
  seen.reserve(shard.size());
  for (const Exchange* e : shard) {
    seen.emplace_back(e->input, e->response);
  }
  if (seen.size() != traced.size()) {
    return "client saw " + std::to_string(seen.size()) + " exchanges, trace holds " +
           std::to_string(traced.size());
  }
  std::sort(seen.begin(), seen.end(), PairLess);
  std::sort(traced.begin(), traced.end(), PairLess);
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] != traced[i]) {
      return "client pair " + seen[i].first.ToString() + " -> " + seen[i].second.ToString() +
             " differs from traced " + traced[i].first.ToString() + " -> " +
             traced[i].second.ToString();
    }
  }
  return "";
}

std::string CheckStacks(const std::vector<const Exchange*>& shard) {
  std::map<std::string, int64_t> ok_submits;
  std::map<std::string, int64_t> fresh;
  for (const Exchange* e : shard) {
    if (e->input.Field("op").StringOr("") != "submit" || IsRetry(e->response)) {
      continue;
    }
    if (!e->response.Field("ok").BoolOr(false)) {
      return "submit without ok: " + Describe(*e);
    }
    const std::string dump = e->input.Field("dump").StringOr("");
    ++ok_submits[dump];
    if (e->response.Field("new").BoolOr(false) && ++fresh[dump] > 1) {
      return "second new:true for one dump: " + Describe(*e);
    }
  }
  for (const Exchange* e : shard) {
    if (e->input.Field("op").StringOr("") != "count" || IsRetry(e->response)) {
      continue;
    }
    const Value& count = e->response.Field("count");
    const std::string dump = e->input.Field("dump").StringOr("");
    if (!count.is_int() || count.AsInt() < 0 || count.AsInt() > ok_submits[dump]) {
      return "count above the " + std::to_string(ok_submits[dump]) +
             " successful submits: " + Describe(*e);
    }
  }
  return "";
}

std::string CheckAuction(const std::vector<const Exchange*>& shard) {
  std::map<int64_t, int64_t> bids_sent;  // Non-retry bids per item.
  for (const Exchange* e : shard) {
    const std::string op = e->input.Field("op").StringOr("");
    if (IsRetry(e->response)) {
      continue;
    }
    if (op == "bid") {
      ++bids_sent[e->input.Field("item").IntOr(-1)];
      if (e->response.Field("accepted").BoolOr(false) &&
          e->response.Field("high") != e->input.Field("amount")) {
        return "accepted bid whose high is not its amount: " + Describe(*e);
      }
    } else if (op == "verify" && !e->response.Field("stable").BoolOr(false)) {
      return "unstable verify at serializable: " + Describe(*e);
    }
  }
  auto bids_ok = [&bids_sent](int64_t item, const Value& bids) {
    // null: the item was never opened; -1: a list row's retry marker.
    return bids.is_null() ||
           (bids.is_int() && (bids.AsInt() == -1 ||
                              (bids.AsInt() >= 0 && bids.AsInt() <= bids_sent[item])));
  };
  for (const Exchange* e : shard) {
    const std::string op = e->input.Field("op").StringOr("");
    if (IsRetry(e->response)) {
      continue;
    }
    if ((op == "query" || op == "verify") &&
        !bids_ok(e->input.Field("item").IntOr(-1), e->response.Field("bids"))) {
      return "bids above the non-retry bids sent: " + Describe(*e);
    }
    if (op == "list" && e->response.Field("items").is_list()) {
      for (const Value& row : e->response.Field("items").AsList()) {
        if (!bids_ok(row.Field("item").IntOr(-1), row.Field("bids"))) {
          return "listed bids above the non-retry bids sent: " + Describe(*e);
        }
      }
    }
  }
  return "";
}

std::string CheckWiki(const std::vector<const Exchange*>& shard) {
  std::map<std::string, std::vector<const Exchange*>> uncached;
  for (const Exchange* e : shard) {
    if (e->input.Field("op").StringOr("") == "render" && !IsRetry(e->response) &&
        !e->response.Field("cached").BoolOr(false)) {
      uncached[e->input.Field("page").StringOr("")].push_back(e);
    }
  }
  for (const Exchange* e : shard) {
    if (e->input.Field("op").StringOr("") != "render" ||
        !e->response.Field("cached").BoolOr(false)) {
      continue;
    }
    bool found = false;
    for (const Exchange* u : uncached[e->input.Field("page").StringOr("")]) {
      if (u->sent_s < e->received_s && u->response.Field("html") == e->response.Field("html")) {
        found = true;
        break;
      }
    }
    if (!found) {
      return "cached render matches no earlier uncached render: " + Describe(*e);
    }
  }
  return "";
}

std::string CheckAppInvariants(const std::string& app, const std::vector<const Exchange*>& shard) {
  if (app == "stacks") {
    return CheckStacks(shard);
  }
  if (app == "auction") {
    return CheckAuction(shard);
  }
  if (app == "wiki") {
    return CheckWiki(shard);
  }
  return "";
}

namespace {
bool HasLine(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0 || text.find("\n" + prefix) != std::string::npos;
}
}  // namespace

bool VerdictAccepted(const AuditOutcome& outcome) {
  return outcome.exit_code == 0 && HasLine(outcome.output, "ACCEPTED:") &&
         !HasLine(outcome.output, "REJECTED:");
}

bool VerdictRejected(const AuditOutcome& outcome) {
  return outcome.exit_code == 1 && HasLine(outcome.output, "REJECTED:") &&
         !HasLine(outcome.output, "ACCEPTED:");
}

bool ForgeResponse(karousos::EpochSlices* slices, karousos::RequestId rid, const Value& forged) {
  for (karousos::EpochSegment& segment : slices->segments) {
    for (TraceEvent& ev : segment.window) {
      if (ev.kind == TraceEvent::Kind::kResponse && ev.rid == rid) {
        if (ev.payload == forged) {
          return false;
        }
        ev.payload = forged;
        return true;
      }
    }
  }
  return false;
}

std::vector<uint8_t> RawBytes(const karousos::EpochSlices& slices) {
  std::vector<uint8_t> out = karousos::EncodeTraceSegments(slices);
  std::vector<uint8_t> advice = karousos::EncodeAdviceSegments(slices);
  out.insert(out.end(), advice.begin(), advice.end());
  return out;
}

}  // namespace perfbench
