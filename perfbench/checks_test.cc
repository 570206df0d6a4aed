// Tests of the benchmark's own output checks: each checker rejects a small
// hand-made response set that breaks its invariant, and the verdict check
// refuses a forged shard copy that is passed off as honest.
#include "perfbench/checks.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/apps/app.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using karousos::MakeMap;

Exchange Ex(Value input, Value response, double sent = 0, double received = 0) {
  Exchange e;
  e.input = std::move(input);
  e.response = std::move(response);
  e.responses = 1;
  e.sent_s = sent;
  e.received_s = received;
  return e;
}

std::vector<const Exchange*> Ptrs(const std::vector<Exchange>& ex) {
  std::vector<const Exchange*> out;
  for (const Exchange& e : ex) {
    out.push_back(&e);
  }
  return out;
}

Value Submit(const char* dump) { return MakeMap({{"op", "submit"}, {"dump", dump}}); }
Value Count(const char* dump) { return MakeMap({{"op", "count"}, {"dump", dump}}); }
Value SubmitOk(bool is_new) { return MakeMap({{"ok", true}, {"new", is_new}}); }
Value Retry() { return MakeMap({{"retry", true}}); }

TEST(CheckOneResponseEach, RejectsMissingAndDuplicateResponses) {
  std::vector<Exchange> ex = {Ex(Submit("a"), SubmitOk(true))};
  EXPECT_EQ(CheckOneResponseEach(ex), "");
  ex[0].responses = 0;
  EXPECT_NE(CheckOneResponseEach(ex), "");
  ex[0].responses = 2;
  EXPECT_NE(CheckOneResponseEach(ex), "");
}

TEST(CheckTraceMatches, RejectsAResponseTheTraceDoesNotHold) {
  using karousos::TraceEvent;
  std::vector<TraceEvent> events = {
      {TraceEvent::Kind::kRequest, 1, Submit("a")},
      {TraceEvent::Kind::kRequest, 2, Count("a")},
      {TraceEvent::Kind::kResponse, 2, MakeMap({{"count", 1}})},
      {TraceEvent::Kind::kResponse, 1, SubmitOk(true)},
  };
  std::vector<Exchange> ex = {Ex(Count("a"), MakeMap({{"count", 1}})),
                              Ex(Submit("a"), SubmitOk(true))};
  EXPECT_EQ(CheckTraceMatches(Ptrs(ex), events), "");
  ex[0].response = MakeMap({{"count", 2}});
  EXPECT_NE(CheckTraceMatches(Ptrs(ex), events), "");
  ex.pop_back();
  EXPECT_NE(CheckTraceMatches(Ptrs(ex), events), "");
}

TEST(CheckStacks, AcceptsAConsistentShard) {
  std::vector<Exchange> ex = {Ex(Submit("a"), SubmitOk(true)), Ex(Submit("a"), SubmitOk(false)),
                              Ex(Submit("a"), Retry()), Ex(Count("a"), MakeMap({{"count", 2}})),
                              Ex(Count("b"), MakeMap({{"count", 0}}))};
  EXPECT_EQ(CheckStacks(Ptrs(ex)), "");
}

TEST(CheckStacks, RejectsTwoNewSubmitsOfOneDump) {
  std::vector<Exchange> ex = {Ex(Submit("a"), SubmitOk(true)), Ex(Submit("a"), SubmitOk(true))};
  EXPECT_NE(CheckStacks(Ptrs(ex)), "");
}

TEST(CheckStacks, RejectsACountAboveTheSuccessfulSubmits) {
  std::vector<Exchange> ex = {Ex(Submit("a"), SubmitOk(true)), Ex(Submit("a"), Retry()),
                              Ex(Count("a"), MakeMap({{"count", 2}}))};
  EXPECT_NE(CheckStacks(Ptrs(ex)), "");
}

Value Bid(int item, int amount) {
  return MakeMap({{"op", "bid"}, {"item", item}, {"amount", amount}, {"bidder", "c0"}});
}
Value Query(int item) { return MakeMap({{"op", "query"}, {"item", item}}); }
Value Verify(int item) { return MakeMap({{"op", "verify"}, {"item", item}}); }

TEST(CheckAuction, AcceptsAConsistentShard) {
  std::vector<Exchange> ex = {
      Ex(Bid(0, 50), MakeMap({{"accepted", true}, {"high", 50}})),
      Ex(Bid(0, 40), MakeMap({{"accepted", false}, {"high", 50}})),
      Ex(Bid(0, 70), Retry()),
      Ex(Query(0), MakeMap({{"high", 50}, {"bids", 2}, {"open", true}})),
      Ex(Verify(0), MakeMap({{"stable", true}, {"bids", 2}})),
      Ex(MakeMap({{"op", "list"}}),
         MakeMap({{"items", karousos::ValueList{MakeMap({{"item", 0}, {"bids", 2}})}}})),
  };
  EXPECT_EQ(CheckAuction(Ptrs(ex)), "");
}

TEST(CheckAuction, RejectsAnUnstableVerify) {
  std::vector<Exchange> ex = {Ex(Verify(0), MakeMap({{"stable", false}, {"bids", 0}}))};
  EXPECT_NE(CheckAuction(Ptrs(ex)), "");
}

TEST(CheckAuction, RejectsAnAcceptedBidWhoseHighIsNotItsAmount) {
  std::vector<Exchange> ex = {Ex(Bid(1, 30), MakeMap({{"accepted", true}, {"high", 31}}))};
  EXPECT_NE(CheckAuction(Ptrs(ex)), "");
}

TEST(CheckAuction, RejectsMoreBidsThanWereSent) {
  std::vector<Exchange> ex = {Ex(Bid(2, 10), MakeMap({{"accepted", true}, {"high", 10}})),
                              Ex(Bid(2, 20), Retry()),
                              Ex(Query(2), MakeMap({{"high", 20}, {"bids", 2}, {"open", true}}))};
  EXPECT_NE(CheckAuction(Ptrs(ex)), "");
  std::vector<Exchange> listed = {
      Ex(Bid(2, 10), MakeMap({{"accepted", true}, {"high", 10}})),
      Ex(MakeMap({{"op", "list"}}),
         MakeMap({{"items", karousos::ValueList{MakeMap({{"item", 2}, {"bids", 3}})}}}))};
  EXPECT_NE(CheckAuction(Ptrs(listed)), "");
}

Value Render(const char* page) { return MakeMap({{"op", "render"}, {"page", page}}); }
Value Html(const char* html, bool cached) { return MakeMap({{"html", html}, {"cached", cached}}); }

TEST(CheckWiki, AcceptsACachedRenderOfAnEarlierRender) {
  std::vector<Exchange> ex = {Ex(Render("p1"), Html("<h1>x</h1>", false), 1.0, 2.0),
                              Ex(Render("p1"), Html("<h1>x</h1>", true), 2.5, 3.0)};
  EXPECT_EQ(CheckWiki(Ptrs(ex)), "");
}

TEST(CheckWiki, RejectsACachedRenderNoUncachedRenderProduced) {
  std::vector<Exchange> ex = {Ex(Render("p1"), Html("<h1>x</h1>", false), 1.0, 2.0),
                              Ex(Render("p1"), Html("<h1>y</h1>", true), 2.5, 3.0)};
  EXPECT_NE(CheckWiki(Ptrs(ex)), "");
  // Same html, but the uncached render was sent after the cached one returned.
  std::vector<Exchange> late = {Ex(Render("p1"), Html("<h1>x</h1>", false), 4.0, 5.0),
                                Ex(Render("p1"), Html("<h1>x</h1>", true), 2.5, 3.0)};
  EXPECT_NE(CheckWiki(Ptrs(late)), "");
}

// Runs the shipped CLI the way the benchmark does and captures its verdict.
AuditOutcome RunCli(const std::string& trace, const std::string& advice, uint64_t epoch) {
  const std::string cmd = std::string(PERFBENCH_KAROUSOS_CLI) + " audit --app stacks --trace " +
                          trace + " --advice " + advice + " --epoch-size " +
                          std::to_string(epoch) + " --threads 1 2>&1";
  AuditOutcome outcome;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return outcome;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    outcome.output.append(buf, n);
  }
  const int status = pclose(pipe);
  outcome.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return outcome;
}

void Write(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Verdict, ForgedCopyPassedOffAsHonestIsNotAccepted) {
  constexpr uint64_t kEpoch = 40;
  karousos::AppSpec app = karousos::MakeStacksApp();
  karousos::WorkloadConfig wl;
  wl.app = "stacks";
  wl.requests = 160;
  karousos::ServerConfig cfg;
  cfg.concurrency = 8;
  cfg.epoch_requests = kEpoch;
  cfg.segment_compression = karousos::KsegCompression::All();
  karousos::Server server(*app.program, cfg);
  karousos::ServerRunResult run = server.Run(karousos::GenerateWorkload(wl));

  const std::string dir = "perfbench_checks_test.tmp";
  std::filesystem::create_directories(dir);
  Write(dir + "/trace.kseg", run.trace_segments);
  Write(dir + "/advice.kseg", run.advice_segments);
  const AuditOutcome honest = RunCli(dir + "/trace.kseg", dir + "/advice.kseg", kEpoch);
  EXPECT_TRUE(VerdictAccepted(honest)) << honest.output;
  EXPECT_FALSE(VerdictRejected(honest)) << honest.output;

  karousos::EpochSlices slices = karousos::SliceRun(run.trace, run.advice, kEpoch);
  ASSERT_TRUE(ForgeResponse(&slices, wl.requests / 2, MakeMap({{"forged", true}})));
  Write(dir + "/forged.kseg",
        karousos::EncodeTraceSegments(slices, karousos::KsegCompression::All()));
  const AuditOutcome forged = RunCli(dir + "/forged.kseg", dir + "/advice.kseg", kEpoch);
  EXPECT_FALSE(VerdictAccepted(forged)) << forged.output;
  EXPECT_TRUE(VerdictRejected(forged)) << forged.output;

  // An "ACCEPTED" line alone is not enough: the exit code must agree.
  AuditOutcome lying = forged;
  lying.output = "ACCEPTED: 160 requests\n";
  EXPECT_FALSE(VerdictAccepted(lying));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
