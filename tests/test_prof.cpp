// cuprof tests: tracer correctness under concurrency, export well-formedness
// (strict per-thread span nesting validated by parsing the JSON), counter
// registry merge algebra, and the disabled-tracer null path. The companion
// TU test_prof_off.cpp checks the CUMF_PROF_FORCE_OFF macro expansion; both
// link into this binary, which is the ODR-safety test for mixing
// instrumented and null TUs.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "prof/counters.hpp"
#include "prof/prof.hpp"
#include "prof/telemetry.hpp"

namespace cumf::prof {
namespace {

/// Shared tracer state is global; serialize every test through a fresh,
/// disabled tracer.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

// --- Minimal trace-event scanner ----------------------------------------
// The exporter's output is machine-generated and stable, so a small string
// scanner (not a general JSON parser) suffices to recover the complete
// events and re-check the invariants a real consumer depends on.

struct ParsedSpan {
  std::string name;
  long tid = -1;
  double ts = 0.0;
  double dur = 0.0;
};

std::string extract_string(const std::string& obj, const std::string& key) {
  const auto at = obj.find("\"" + key + "\":\"");
  if (at == std::string::npos) {
    return {};
  }
  const auto start = at + key.size() + 4;
  const auto end = obj.find('"', start);
  return obj.substr(start, end - start);
}

double extract_number(const std::string& obj, const std::string& key) {
  const auto at = obj.find("\"" + key + "\":");
  if (at == std::string::npos) {
    return -1.0;
  }
  return std::strtod(obj.c_str() + at + key.size() + 3, nullptr);
}

/// Splits the traceEvents array into balanced {...} object strings.
std::vector<std::string> event_objects(const std::string& json) {
  std::vector<std::string> out;
  const auto array_at = json.find("\"traceEvents\":[");
  EXPECT_NE(array_at, std::string::npos);
  std::size_t i = array_at;
  int depth = 0;
  std::size_t start = 0;
  bool in_string = false;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) {
        start = i;
      }
    } else if (c == '}') {
      if (--depth == 0) {
        out.push_back(json.substr(start, i - start + 1));
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

std::vector<ParsedSpan> parse_complete_spans(const std::string& json) {
  std::vector<ParsedSpan> spans;
  for (const auto& obj : event_objects(json)) {
    if (extract_string(obj, "ph") != "X") {
      continue;
    }
    ParsedSpan s;
    s.name = extract_string(obj, "name");
    s.tid = static_cast<long>(extract_number(obj, "tid"));
    s.ts = extract_number(obj, "ts");
    s.dur = extract_number(obj, "dur");
    spans.push_back(s);
  }
  return spans;
}

/// Checks the strict-nesting invariant: within one tid, any two spans
/// either nest or are disjoint.
void expect_strictly_nested(std::vector<ParsedSpan> spans) {
  std::map<long, std::vector<ParsedSpan>> by_tid;
  for (auto& s : spans) {
    EXPECT_GE(s.ts, 0.0);
    EXPECT_GE(s.dur, 0.0);
    by_tid[s.tid].push_back(s);
  }
  constexpr double kEps = 1e-6;
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.ts + a.dur > b.ts + b.dur;
    });
    std::vector<ParsedSpan> stack;
    for (const auto& s : list) {
      while (!stack.empty() &&
             s.ts >= stack.back().ts + stack.back().dur - kEps) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(s.ts + s.dur, stack.back().ts + stack.back().dur + kEps)
            << "span '" << s.name << "' overlaps '" << stack.back().name
            << "' without nesting on tid " << tid;
      }
      stack.push_back(s);
    }
  }
}

// --- Tracer -------------------------------------------------------------

TEST_F(ProfTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::enabled());
  { ScopedSpan ghost("ghost"); }
  { CUMF_PROF_SCOPE("ghost_macro"); }
  CUMF_PROF_COUNTER("ghost_counter", 42.0);
  Tracer::instance().enable();
  const auto spans = parse_complete_spans(
      Tracer::instance().chrome_trace_json());
  Tracer::instance().disable();
  EXPECT_TRUE(spans.empty());
}

TEST_F(ProfTest, ScopedSpansNestAndCarryParents) {
  Tracer::instance().enable();
  {
    // ScopedSpan directly (not the macros) so this test is meaningful in
    // both CUMF_PROF=ON and =OFF configurations of the repo.
    ScopedSpan outer("outer", "test");
    { ScopedSpan inner("inner", "test"); }
    { ScopedSpan inner("inner", "test"); }
  }
  const auto json = Tracer::instance().chrome_trace_json();
  const auto spans = parse_complete_spans(json);
  ASSERT_EQ(spans.size(), 3u);
  expect_strictly_nested(spans);
  int inner = 0;
  for (const auto& s : spans) {
    inner += s.name == "inner" ? 1 : 0;
  }
  EXPECT_EQ(inner, 2);
}

TEST_F(ProfTest, ConcurrentPoolWorkersProduceWellFormedNestedTrace) {
  Tracer::instance().enable();
  constexpr int kWorkers = 4;
  constexpr std::size_t kTasks = 64;
  {
    ThreadPool pool(kWorkers);
    std::atomic<int> ran{0};
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit([&ran] {
        ScopedSpan work("work", "test");
        { ScopedSpan inner("work_inner", "test"); }
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), static_cast<int>(kTasks));
  }

  const auto json = Tracer::instance().chrome_trace_json();
  const auto spans = parse_complete_spans(json);
  // Every task contributes a pool-recorded "task" span wrapping the user's
  // "work"/"work_inner" pair.
  std::size_t work = 0;
  std::size_t inner = 0;
  std::size_t task = 0;
  for (const auto& s : spans) {
    work += s.name == "work" ? 1 : 0;
    inner += s.name == "work_inner" ? 1 : 0;
    task += s.name == "task" ? 1 : 0;
  }
  EXPECT_EQ(work, kTasks);
  EXPECT_EQ(inner, kTasks);
  EXPECT_EQ(task, kTasks);
  expect_strictly_nested(spans);

  // Worker threads were named by the observer.
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_NE(json.find("pool-worker-"), std::string::npos);
  }
}

TEST_F(ProfTest, RingOverflowDropsOldestAndCounts) {
  Tracer::instance().enable(/*ring_capacity=*/64);
  const std::size_t capacity = Tracer::instance().local().capacity();
  for (std::size_t i = 0; i < capacity + 17; ++i) {
    ScopedSpan spin("spin", "test");
  }
  EXPECT_EQ(Tracer::instance().total_dropped(), 17u);
  const auto spans = parse_complete_spans(
      Tracer::instance().chrome_trace_json());
  EXPECT_EQ(spans.size(), capacity);
}

TEST_F(ProfTest, SummaryAggregatesPerName) {
  Tracer::instance().enable();
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("repeated", "test");
  }
  { ScopedSpan span("single", "test"); }
  const auto stats = Tracer::instance().summarize();
  ASSERT_EQ(stats.size(), 2u);
  std::uint64_t repeated = 0;
  for (const auto& s : stats) {
    if (s.name == "repeated") {
      repeated = s.count;
      EXPECT_GE(s.max_us, s.p50_us);
      EXPECT_GE(s.p95_us, s.p50_us);
    }
  }
  EXPECT_EQ(repeated, 5u);
}

TEST_F(ProfTest, CompleteSpanUsesCallerTimestamps) {
  Tracer::instance().enable();
  Tracer::instance().complete_span("manual", "test", 1000, 3500);
  const auto spans = parse_complete_spans(
      Tracer::instance().chrome_trace_json());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "manual");
  EXPECT_DOUBLE_EQ(spans[0].ts, 1.0);    // µs
  EXPECT_DOUBLE_EQ(spans[0].dur, 2.5);   // µs
}

#if defined(CUMF_PROF_ENABLED)
TEST_F(ProfTest, MacrosRecordWhenCompiledIn) {
  Tracer::instance().enable();
  { CUMF_PROF_SCOPE("macro_span", "test"); }
  CUMF_PROF_COUNTER("macro_counter", 7.0);
  const auto json = Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find("macro_span"), std::string::npos);
  EXPECT_NE(json.find("macro_counter"), std::string::npos);
}
#endif

// --- Counter registry ---------------------------------------------------

TEST(Histogram, BucketKeysAreDeterministic) {
  EXPECT_EQ(Histogram::bucket_key(-3.0), 0u);
  EXPECT_EQ(Histogram::bucket_key(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_key(6.0), 6u);
  EXPECT_EQ(Histogram::bucket_key(128.0), 128u);
  EXPECT_EQ(Histogram::bucket_key(129.0), 144u);
  EXPECT_EQ(Histogram::bucket_key(1000.0), 1024u);
}

TEST(Histogram, TailKeysResolveWithinAnEighthOfAnOctave) {
  // Above 128 a key is the upper bound of the value's eighth of its octave
  // (2^e, 2^(e+1)]: never below the value, less than 2^e / 8 above it, and
  // a key is its own bucket.
  for (std::uint64_t v = 129; v < (std::uint64_t{1} << 40); v += v / 37 + 1) {
    const std::uint64_t key = Histogram::bucket_key(static_cast<double>(v));
    const std::uint64_t octave_base = std::bit_floor(v - 1);
    ASSERT_GE(key, v) << v;
    ASSERT_LT(key - v, octave_base / 8) << v;
    ASSERT_LE(key, 2 * octave_base) << v;
    ASSERT_EQ(Histogram::bucket_key(static_cast<double>(key)), key) << v;
  }
  EXPECT_EQ(Histogram::bucket_key(144.0), 144u);
  EXPECT_EQ(Histogram::bucket_key(145.0), 160u);
  EXPECT_EQ(Histogram::bucket_key(256.0), 256u);
  EXPECT_EQ(Histogram::bucket_key(257.0), 288u);
}

TEST(Histogram, TailPercentilesStayMergeStable) {
  // Latency-like values from 50 µs to 50 ms, split across three shards and
  // merged in two orders: every percentile equals the whole histogram's.
  Rng rng(71);
  Histogram whole;
  Histogram shards[3];
  for (int i = 0; i < 6000; ++i) {
    const double v = std::exp(rng.normal(6.0, 1.2));
    whole.observe(v);
    shards[i % 3].observe(v);
  }
  Histogram left = shards[0];
  left.merge(shards[1]);
  left.merge(shards[2]);
  Histogram right = shards[2];
  right.merge(shards[0]);
  right.merge(shards[1]);
  EXPECT_EQ(left.buckets(), whole.buckets());
  EXPECT_EQ(right.buckets(), whole.buckets());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    EXPECT_EQ(left.percentile(q), whole.percentile(q)) << q;
    EXPECT_EQ(right.percentile(q), whole.percentile(q)) << q;
  }
  EXPECT_GT(whole.percentile(0.5), 128.0);  // the tail buckets are in play
}

TEST(Histogram, MergeSumsBucketwise) {
  Histogram a;
  Histogram b;
  a.observe(6);
  a.observe(6);
  b.observe(6);
  b.observe(5);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 23.0);
  EXPECT_EQ(a.buckets().at(6), 3u);
  EXPECT_EQ(a.buckets().at(5), 1u);
}

CounterRegistry shard(double obs) {
  CounterRegistry r;
  r.observe("cg_iters", obs);
  return r;
}

TEST(CounterRegistry, MergeIsAssociativeAndCommutative) {
  const auto a = shard(4);
  const auto b = shard(6);
  const auto c = shard(6);

  // (a ⊕ b) ⊕ c
  CounterRegistry left = a;
  left.merge(b);
  left.merge(c);
  // a ⊕ (b ⊕ c)
  CounterRegistry bc = b;
  bc.merge(c);
  CounterRegistry right = a;
  right.merge(bc);
  // c ⊕ b ⊕ a (commuted)
  CounterRegistry commuted = c;
  commuted.merge(b);
  commuted.merge(a);

  EXPECT_EQ(left, right);
  EXPECT_EQ(left, commuted);
  ASSERT_NE(left.histogram("cg_iters"), nullptr);
  EXPECT_EQ(left.histogram("cg_iters")->count(), 3u);
  EXPECT_EQ(left.histogram("cg_iters")->buckets().at(6), 2u);
}

// --- Telemetry JSON builder ---------------------------------------------

TEST(JsonObject, RendersTypesAndEscapes) {
  JsonObject o;
  o.set("str", "a\"b\\c");
  o.set("i", std::int64_t{-3});
  o.set("flag", true);
  o.set_null("missing");
  o.set_raw("nested", "{\"x\":1}");
  const auto s = o.str();
  EXPECT_NE(s.find("\"str\":\"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(s.find("\"i\":-3"), std::string::npos);
  EXPECT_NE(s.find("\"flag\":true"), std::string::npos);
  EXPECT_NE(s.find("\"missing\":null"), std::string::npos);
  EXPECT_NE(s.find("\"nested\":{\"x\":1}"), std::string::npos);
}

TEST(JsonObject, NonFiniteDoublesBecomeNull) {
  JsonObject o;
  o.set("nan", std::nan(""));
  EXPECT_NE(o.str().find("\"nan\":null"), std::string::npos);
}

}  // namespace
}  // namespace cumf::prof
