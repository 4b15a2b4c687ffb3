// Trace recorder: concurrency, overflow, disabled-mode, and the Chrome
// export contract (validated with the repo's own strict JSON parser).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace zero::obs {
namespace {

// Every test owns the global recorder: start from a clean slate and
// leave tracing off for the suites that follow.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisableTracing();
    SetTraceBufferCapacity(16384);
    ResetTrace();
  }
  void TearDown() override {
    DisableTracing();
    ResetTrace();
    SetThreadLogRank(-1);
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(TracingEnabled());
  for (int i = 0; i < 100; ++i) {
    TRACE_SPAN("noop");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
  EXPECT_EQ(TraceDroppedCount(), 0u);
}

TEST_F(TraceTest, RecordsNestedSpansWithDurations) {
  EnableTracing();
  {
    TRACE_SPAN("outer");
    TRACE_SPAN("inner");
  }
  DisableTracing();

  std::vector<ThreadEvents> threads = CollectEvents();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 2u);
  // Scoped destruction records inner before outer.
  EXPECT_STREQ(threads[0].events[0].name, "inner");
  EXPECT_STREQ(threads[0].events[1].name, "outer");
  const TraceEvent& inner = threads[0].events[0];
  const TraceEvent& outer = threads[0].events[1];
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST_F(TraceTest, ConcurrentThreadsProduceValidMonotonicChromeJson) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;

  EnableTracing();
  std::atomic<int> go{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &go] {
      SetThreadLogRank(t % 4);  // four "ranks", two threads each
      SetThreadTraceName("worker " + std::to_string(t));
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }  // maximize interleaving
      for (int i = 0; i < kSpansPerThread; ++i) {
        TRACE_SPAN("test/span");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  DisableTracing();

  EXPECT_EQ(TraceEventCount(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(TraceDroppedCount(), 0u);

  std::vector<ThreadEvents> threads = CollectEvents();
  ASSERT_EQ(threads.size(), static_cast<std::size_t>(kThreads));
  std::set<int> tids;
  for (const ThreadEvents& te : threads) {
    tids.insert(te.tid);
    ASSERT_EQ(te.events.size(), static_cast<std::size_t>(kSpansPerThread));
    // Per-thread event order is chronological.
    for (std::size_t i = 1; i < te.events.size(); ++i) {
      EXPECT_GE(te.events[i].start_ns, te.events[i - 1].start_ns);
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));

  const std::string trace_json = ChromeTraceJson(BuildTimeline(threads));
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(trace_json, &error)) << error;

  // Independent structural check with the strict parser: pids cover the
  // four rank tags (rank r -> pid r+1) and thread names survive export.
  json::Value doc;
  ASSERT_TRUE(json::Parse(trace_json, &doc, &error)) << error;
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<double> x_pids;
  int thread_name_meta = 0;
  for (const json::Value& ev : events->as_array()) {
    const std::string& ph = ev.Find("ph")->as_string();
    if (ph == "X") x_pids.insert(ev.Find("pid")->as_number());
    if (ph == "M" && ev.Find("name")->as_string() == "thread_name") {
      ++thread_name_meta;
    }
  }
  EXPECT_EQ(x_pids, (std::set<double>{1, 2, 3, 4}));
  EXPECT_EQ(thread_name_meta, kThreads);
}

TEST_F(TraceTest, RingOverflowDropsOldestAndNeverBlocks) {
  SetTraceBufferCapacity(64);  // minimum ring
  EnableTracing();
  constexpr int kSpans = 300;
  for (int i = 0; i < kSpans; ++i) {
    TRACE_SPAN("overflow/span");
  }
  DisableTracing();

  EXPECT_EQ(TraceEventCount(), 64u);
  EXPECT_EQ(TraceDroppedCount(), static_cast<std::uint64_t>(kSpans - 64));

  // The survivors are the *newest* 64, still in chronological order.
  std::vector<ThreadEvents> threads = CollectEvents();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 64u);
  EXPECT_EQ(threads[0].dropped, static_cast<std::uint64_t>(kSpans - 64));
  for (std::size_t i = 1; i < threads[0].events.size(); ++i) {
    EXPECT_GE(threads[0].events[i].start_ns,
              threads[0].events[i - 1].start_ns);
  }
  // A capped trace still exports valid Chrome JSON.
  std::string error;
  EXPECT_TRUE(
      ValidateChromeTrace(ChromeTraceJson(BuildTimeline(threads)), &error))
      << error;
}

TEST_F(TraceTest, ResetClearsEventsAndRegistrations) {
  EnableTracing();
  {
    TRACE_SPAN("before-reset");
  }
  EXPECT_EQ(TraceEventCount(), 1u);
  DisableTracing();
  ResetTrace();
  EXPECT_EQ(TraceEventCount(), 0u);
  EXPECT_EQ(TraceDroppedCount(), 0u);
  EXPECT_TRUE(CollectEvents().empty());

  // The calling thread re-registers transparently on its next span.
  EnableTracing();
  {
    TRACE_SPAN("after-reset");
  }
  DisableTracing();
  std::vector<ThreadEvents> threads = CollectEvents();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 1u);
  EXPECT_STREQ(threads[0].events[0].name, "after-reset");
}

TEST_F(TraceTest, LongNamesTruncateSafely) {
  const std::string long_name(200, 'x');
  EnableTracing();
  {
    TraceSpan span(long_name.c_str());
  }
  DisableTracing();
  std::vector<ThreadEvents> threads = CollectEvents();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 1u);
  EXPECT_EQ(std::string(threads[0].events[0].name),
            std::string(TraceEvent::kNameCap - 1, 'x'));
}

TEST_F(TraceTest, ValidatorRejectsMalformedTraces) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("not json", &error));
  EXPECT_FALSE(ValidateChromeTrace("{}", &error));  // no traceEvents
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[{"ph":"X","name":"a","pid":1,"tid":1}]})", &error));
  // "X" timestamps must be non-decreasing in file order.
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[
        {"ph":"X","name":"a","pid":1,"tid":1,"ts":5.0,"dur":1.0},
        {"ph":"X","name":"b","pid":1,"tid":1,"ts":2.0,"dur":1.0}]})",
      &error));
  EXPECT_TRUE(ValidateChromeTrace(
      R"({"traceEvents":[
        {"ph":"X","name":"a","pid":1,"tid":1,"ts":2.0,"dur":1.0},
        {"ph":"X","name":"b","pid":1,"tid":1,"ts":5.0,"dur":1.0}]})",
      &error))
      << error;
}

}  // namespace
}  // namespace zero::obs
