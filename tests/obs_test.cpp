// Observability layer tests (DESIGN.md §12): metrics registry exactness
// (including under thread contention, run in CI under TSan), exporter
// formats, span tracer semantics, and profiler sampling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "interp/instance.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "wasm/validator.hpp"
#include "wasm/wat_parser.hpp"

namespace acctee::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram basics
// ---------------------------------------------------------------------------

TEST(Metrics, CounterCountsExactly) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeSetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(7);
  EXPECT_EQ(g.value(), 8);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
}

TEST(Metrics, HistogramBucketsCountAndSum) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (le is inclusive)
  h.observe(3.0);   // bucket 2 (<= 4)
  h.observe(100.0); // +Inf bucket
  HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 0u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 104.5);
}

TEST(Metrics, HistogramQuantiles) {
  Histogram h({1.0, 2.0, 3.0, 4.0});
  // 100 observations spread uniformly over (0, 4]: 25 per bucket.
  for (int i = 1; i <= 100; ++i) h.observe(i * 0.04);
  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  // Interpolated quantiles land inside the right bucket.
  EXPECT_GT(snap.quantile(0.5), 1.0);
  EXPECT_LE(snap.quantile(0.5), 2.0);
  EXPECT_GT(snap.quantile(0.95), 3.0);
  EXPECT_LE(snap.quantile(0.95), 4.0);
  // Quantiles are monotone in q.
  EXPECT_LE(snap.quantile(0.1), snap.quantile(0.5));
  EXPECT_LE(snap.quantile(0.5), snap.quantile(0.99));
  // Empty histogram: quantile is 0.
  EXPECT_EQ(Histogram({1.0}).snapshot().quantile(0.5), 0.0);
}

TEST(Metrics, HistogramOpenBucketQuantileReportsLargestBound) {
  Histogram h({1.0, 2.0});
  h.observe(50.0);
  h.observe(60.0);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 2.0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Metrics, RegistryHandlesAreStableAndKeyed) {
  Registry reg;
  Counter& a = reg.counter("test_total", "k=\"1\"");
  Counter& b = reg.counter("test_total", "k=\"1\"");
  Counter& c = reg.counter("test_total", "k=\"2\"");
  EXPECT_EQ(&a, &b);   // same series → same handle
  EXPECT_NE(&a, &c);   // different labels → distinct series
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, PrometheusExposition) {
  Registry reg;
  reg.counter("widgets_total", "kind=\"a\"").add(3);
  reg.gauge("depth").set(-2);
  reg.histogram("lat_seconds", {0.5, 1.0}).observe(0.7);
  std::string out = reg.prometheus();
  EXPECT_NE(out.find("# TYPE widgets_total counter"), std::string::npos);
  EXPECT_NE(out.find("widgets_total{kind=\"a\"} 3"), std::string::npos);
  EXPECT_NE(out.find("depth -2"), std::string::npos);
  // Cumulative buckets + implicit +Inf + _sum/_count.
  EXPECT_NE(out.find("lat_seconds_bucket{le=\"0.5\"} 0"), std::string::npos);
  EXPECT_NE(out.find("lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(out.find("lat_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(out.find("lat_seconds_count 1"), std::string::npos);
  EXPECT_NE(out.find("lat_seconds_sum 0.7"), std::string::npos);
}

TEST(Metrics, JsonExport) {
  Registry reg;
  reg.counter("c_total").add(5);
  reg.histogram("h_seconds", {1.0}).observe(0.25);
  std::string out = reg.json();
  EXPECT_NE(out.find("\"name\": \"c_total\""), std::string::npos);
  EXPECT_NE(out.find("\"value\": 5"), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"h_seconds\""), std::string::npos);
  EXPECT_NE(out.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"p95\""), std::string::npos);
}

TEST(Metrics, DefaultLatencyBoundsAreSortedMicrosToSeconds) {
  std::vector<double> bounds = default_latency_bounds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.front(), 1e-5);
  EXPECT_GE(bounds.back(), 1.0);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Trace, DisabledSpanIsInertAndRecordsNothing) {
  Tracer tracer;
  {
    auto span = tracer.span("noop");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Trace, NestedSpansGetParentIds) {
  Tracer tracer;
  tracer.enable(true);
  {
    auto outer = tracer.span("outer");
    { auto inner = tracer.span("inner"); }
    { auto sibling = tracer.span("sibling"); }
  }
  auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Children finish (and record) before the parent.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "sibling");
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].parent, 0u);  // root
  EXPECT_EQ(spans[0].parent, spans[2].id);
  EXPECT_EQ(spans[1].parent, spans[2].id);
}

TEST(Trace, FinishIsIdempotentAndExplicit) {
  Tracer tracer;
  tracer.enable(true);
  auto span = tracer.span("once");
  span.finish();
  span.finish();
  EXPECT_EQ(tracer.snapshot().size(), 1u);
}

TEST(Trace, RingIsBoundedAndCountsDrops) {
  Tracer tracer(/*capacity=*/4);
  tracer.enable(true);
  for (int i = 0; i < 10; ++i) {
    auto span = tracer.span("s");
  }
  auto spans = tracer.snapshot();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Oldest-first ordering survives wraparound: ids ascend.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].id, spans[i - 1].id);
  }
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, RenderTextIndentsChildren) {
  Tracer tracer;
  tracer.enable(true);
  {
    auto outer = tracer.span("pipeline");
    auto inner = tracer.span("stage");
  }
  std::string text = tracer.render_text();
  EXPECT_NE(text.find("pipeline"), std::string::npos);
  EXPECT_NE(text.find("  stage"), std::string::npos);
  std::string json = tracer.render_json();
  EXPECT_NE(json.find("\"name\": \"stage\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// FuncProfiler
// ---------------------------------------------------------------------------

TEST(Metrics, EscapeLabelValue) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(label_pair("tenant", "we\"ird\\t\nx"),
            "tenant=\"we\\\"ird\\\\t\\nx\"");
}

TEST(Trace, ChromeJsonCompleteEvents) {
  Tracer tracer(8);
  tracer.enable(true);
  {
    auto outer = tracer.span("outer");
    auto inner = tracer.span("inner");
  }
  tracer.enable(false);
  std::string json = tracer.render_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST(Trace, JsonRenderersEscapeHostileSpanNames) {
  Tracer tracer(8);
  tracer.enable(true);
  {
    auto span = tracer.span("we\"ird\\span");
  }
  tracer.enable(false);
  // A quote or backslash in a span name must not break the JSON output.
  EXPECT_NE(tracer.render_chrome_json().find("\"name\": \"we\\\"ird\\\\span\""),
            std::string::npos);
  EXPECT_NE(tracer.render_json().find("\"name\": \"we\\\"ird\\\\span\""),
            std::string::npos);
}

TEST(Profile, FoldedOutputNamesAndScrubsFrames) {
  FuncProfiler profiler(1);
  profiler.on_block(0, 10, 20);
  profiler.on_block(2, 5, 8);
  profiler.on_block(2, 5, 8);
  // Unnamed functions get func<i> frames; func1 was never entered.
  EXPECT_EQ(profiler.to_folded(), "wasm;func0 10\nwasm;func2 10\n");
  // Provided names label frames; separators are scrubbed so a name cannot
  // fake extra stack depth or a sample count.
  std::vector<std::string> names = {"main", "", "do work;now"};
  EXPECT_EQ(profiler.to_folded(&names),
            "wasm;main 10\nwasm;do_work_now 10\n");
}

TEST(Profile, AttributesEveryBlockAtIntervalOne) {
  FuncProfiler profiler;
  profiler.on_block(0, 10, 12);
  profiler.on_block(2, 5, 6);
  profiler.on_block(0, 1, 1);
  ASSERT_EQ(profiler.entries().size(), 3u);
  EXPECT_EQ(profiler.entries()[0].samples, 2u);
  EXPECT_EQ(profiler.entries()[0].instructions, 11u);
  EXPECT_EQ(profiler.entries()[0].cycles, 13u);
  EXPECT_EQ(profiler.entries()[1].samples, 0u);
  EXPECT_EQ(profiler.entries()[2].instructions, 5u);
  EXPECT_EQ(profiler.total_sampled_instructions(), 16u);
}

TEST(Profile, SamplingRecordsEveryNthBlock) {
  FuncProfiler profiler(/*sample_interval=*/3);
  for (int i = 0; i < 9; ++i) profiler.on_block(0, 1, 1);
  EXPECT_EQ(profiler.entries()[0].samples, 3u);
  std::string json = profiler.to_json();
  EXPECT_NE(json.find("\"sample_interval\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"func\": 0"), std::string::npos);
}

TEST(Profile, FrameIndicesSurviveLoweringAcrossDispatchBackends) {
  // Regression for `acctee run --profile` on lowered code: EnterBlock must
  // report the same defined-function indices (and per-block charges) with
  // fusion on, with fusion off, and in the oracle mode, so the module's own
  // names symbolize every profile.
  const char* wat = R"((module
    (func $helper (param i32) (result i32)
      (local $acc i32)
      loop $l
        local.get $acc
        i32.const 3
        i32.add
        local.set $acc
        local.get 0
        i32.const 1
        i32.sub
        local.tee 0
        br_if $l
      end
      local.get $acc)
    (func $run (export "run") (result i32)
      i32.const 50
      call $helper)))";
  wasm::Module module = wasm::parse_wat(wat);
  wasm::validate(module);

  auto profile_with = [&](bool fuse, bool per_instruction,
                          FuncProfiler& profiler) {
    interp::CompiledModule::CompileOptions copts;
    copts.lower.fuse = fuse;
    interp::Instance::Options options;
    options.per_instruction_accounting = per_instruction;
    options.profiler = &profiler;
    interp::Instance inst(interp::compile(module, copts), {}, options);
    inst.invoke("run", {});
  };
  FuncProfiler ref(1), bc(1), nofuse(1);
  profile_with(/*fuse=*/false, /*per_instruction=*/true, ref);  // oracle
  profile_with(/*fuse=*/true, /*per_instruction=*/false, bc);
  profile_with(/*fuse=*/false, /*per_instruction=*/false, nofuse);

  ASSERT_EQ(ref.entries().size(), 2u);
  EXPECT_GT(ref.entries()[0].samples, 0u);  // $helper's loop blocks
  EXPECT_GT(ref.entries()[1].samples, 0u);  // $run's entry block
  for (const FuncProfiler* other : {&bc, &nofuse}) {
    ASSERT_EQ(other->entries().size(), ref.entries().size());
    for (size_t f = 0; f < ref.entries().size(); ++f) {
      EXPECT_EQ(other->entries()[f].samples, ref.entries()[f].samples) << f;
      EXPECT_EQ(other->entries()[f].instructions,
                ref.entries()[f].instructions)
          << f;
      EXPECT_EQ(other->entries()[f].cycles, ref.entries()[f].cycles) << f;
    }
  }
  // Symbolization: the surviving indices select the right names.
  std::vector<std::string> names = {"helper", "run"};
  std::string folded = bc.to_folded(&names);
  EXPECT_NE(folded.find("wasm;helper "), std::string::npos) << folded;
  EXPECT_NE(folded.find("wasm;run "), std::string::npos) << folded;
  EXPECT_EQ(folded, ref.to_folded(&names));
}

// ---------------------------------------------------------------------------
// Trace contexts, head sampling, folded/exemplar exports (DESIGN.md §17)
// ---------------------------------------------------------------------------

TEST(Trace, TraceContextIsDeterministicInTenantAndSequence) {
  TraceContext a = make_trace_context("alice", 0);
  TraceContext b = make_trace_context("alice", 0);
  EXPECT_EQ(a.trace_hi, b.trace_hi);
  EXPECT_EQ(a.trace_lo, b.trace_lo);
  EXPECT_EQ(a.tenant, "alice");
  EXPECT_TRUE(a.valid());
  // Different admission ordinal or tenant → different id.
  TraceContext c = make_trace_context("alice", 1);
  TraceContext d = make_trace_context("bob", 0);
  EXPECT_TRUE(c.trace_hi != a.trace_hi || c.trace_lo != a.trace_lo);
  EXPECT_TRUE(d.trace_hi != a.trace_hi || d.trace_lo != a.trace_lo);
}

TEST(Trace, TraceIdHexRoundTripsAndRejectsMalformedInput) {
  TraceContext ctx = make_trace_context("tenant-7", 42);
  std::string hex = trace_id_hex(ctx.trace_hi, ctx.trace_lo);
  EXPECT_EQ(hex.size(), 32u);
  uint64_t hi = 0;
  uint64_t lo = 0;
  ASSERT_TRUE(parse_trace_id_hex(hex, &hi, &lo));
  EXPECT_EQ(hi, ctx.trace_hi);
  EXPECT_EQ(lo, ctx.trace_lo);
  EXPECT_FALSE(parse_trace_id_hex("abc", &hi, &lo));
  EXPECT_FALSE(parse_trace_id_hex(std::string(32, 'g'), &hi, &lo));
  EXPECT_FALSE(parse_trace_id_hex(hex + "0", &hi, &lo));
}

TEST(Trace, HeadSamplingIsDeterministicAndRespectsRate) {
  Tracer tracer;
  // Disabled tracer never samples, whatever the rate.
  EXPECT_FALSE(tracer.should_sample(1, 2));
  tracer.enable(true);
  tracer.set_sampling_per_myriad(10000);
  EXPECT_TRUE(tracer.should_sample(1, 2));
  tracer.set_sampling_per_myriad(0);
  EXPECT_FALSE(tracer.should_sample(1, 2));
  // 1% sampling: deterministic per id, and roughly 1% of distinct ids.
  tracer.set_sampling_per_myriad(100);
  uint64_t sampled = 0;
  for (uint64_t seq = 0; seq < 10'000; ++seq) {
    TraceContext ctx = make_trace_context("t", seq);
    bool first = tracer.should_sample(ctx.trace_hi, ctx.trace_lo);
    EXPECT_EQ(first, tracer.should_sample(ctx.trace_hi, ctx.trace_lo));
    if (first) ++sampled;
  }
  EXPECT_GT(sampled, 10u);
  EXPECT_LT(sampled, 500u);
  tracer.enable(false);
}

TEST(Trace, SampledOutContextMakesSpansAndEmitInert) {
  Tracer tracer;
  tracer.enable(true);
  TraceContext ctx = make_trace_context("quiet", 3);
  ctx.sampled = false;
  {
    TraceScope scope(ctx);
    auto span = tracer.span("suppressed");
    EXPECT_FALSE(span.active());
    auto t0 = std::chrono::steady_clock::now();
    tracer.emit("also.suppressed", t0, t0);
  }
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.enable(false);
}

TEST(Trace, SampledContextStampsSpansWithTraceIdAndTenant) {
  Tracer tracer;
  tracer.enable(true);
  TraceContext ctx = make_trace_context("loud", 4);
  ctx.sampled = true;
  {
    TraceScope scope(ctx);
    auto span = tracer.span("request");
    auto t0 = std::chrono::steady_clock::now();
    tracer.emit("queue.wait", t0, t0 + std::chrono::microseconds(5));
  }
  auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_hi, ctx.trace_hi);
    EXPECT_EQ(s.trace_lo, ctx.trace_lo);
    EXPECT_EQ(s.tenant, "loud");
  }
  EXPECT_EQ(spans[0].name, "queue.wait");
  EXPECT_GE(spans[0].duration_ns, 5'000u);
  tracer.enable(false);
}

TEST(Trace, DroppedSpansExportToRegistryCounter) {
  // The registry series is shared across Tracer instances, so assert on
  // the delta this tracer causes.
  Counter& dropped =
      Registry::global().counter("acctee_trace_dropped_spans_total");
  const uint64_t before = dropped.value();
  Tracer tracer(/*capacity=*/4);
  tracer.enable(true);
  for (int i = 0; i < 10; ++i) {
    auto span = tracer.span("s");
  }
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(dropped.value() - before, 6u);
}

TEST(Trace, RenderFoldedIsDeterministicAndScrubsHostileFrames) {
  Tracer tracer;
  tracer.enable(true);
  TraceContext ctx = make_trace_context("evil;tenant x", 0);
  ctx.sampled = true;
  {
    TraceScope scope(ctx);
    auto outer = tracer.span("a;b");
    auto inner = tracer.span("c d\x01");
  }
  tracer.enable(false);
  std::string folded = tracer.render_folded();
  // Separators and control bytes in tenant/frame names cannot break the
  // semicolon-joined grammar or fake stack depth.
  EXPECT_NE(folded.find("evil_tenant_x;a_b;c_d_ "), std::string::npos)
      << folded;
  EXPECT_NE(folded.find("evil_tenant_x;a_b "), std::string::npos) << folded;
  EXPECT_EQ(folded, tracer.render_folded());  // deterministic
}

TEST(Trace, RenderersCarryTraceIdOnlyForTracedSpans) {
  Tracer tracer;
  tracer.enable(true);
  {
    auto untraced = tracer.span("plain");
  }
  TraceContext ctx = make_trace_context("t9", 1);
  ctx.sampled = true;
  {
    TraceScope scope(ctx);
    auto traced = tracer.span("traced");
  }
  tracer.enable(false);
  const std::string hex = trace_id_hex(ctx.trace_hi, ctx.trace_lo);
  std::string json = tracer.render_json();
  std::string chrome = tracer.render_chrome_json();
  EXPECT_NE(json.find("\"trace_id\": \"" + hex + "\""), std::string::npos);
  EXPECT_NE(chrome.find("\"trace_id\": \"" + hex + "\""), std::string::npos);
  // The untraced span must not grow a trace_id field.
  EXPECT_EQ(json.find("\"trace_id\": \"000000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus exposition conformance (HELP/TYPE, exemplars, scrape parse)
// ---------------------------------------------------------------------------

TEST(Metrics, HelpLinesRenderEscapedBeforeType) {
  Registry reg;
  reg.set_help("widgets_total", "Widgets with a \\ and\na newline");
  reg.counter("widgets_total").inc();
  std::string out = reg.prometheus();
  size_t help = out.find("# HELP widgets_total Widgets with a \\\\ and\\na newline");
  size_t type = out.find("# TYPE widgets_total counter");
  ASSERT_NE(help, std::string::npos) << out;
  ASSERT_NE(type, std::string::npos);
  EXPECT_LT(help, type);
  // Series without registered help render no HELP line.
  Registry bare;
  bare.counter("quiet_total").inc();
  EXPECT_EQ(bare.prometheus().find("# HELP"), std::string::npos);
}

TEST(Metrics, HistogramExemplarRequiresSampledContext) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);  // no ambient context → no exemplar
  EXPECT_FALSE(h.snapshot().exemplars[0].valid);

  TraceContext out_ctx = make_trace_context("t", 0);
  out_ctx.sampled = false;
  {
    TraceScope scope(out_ctx);
    h.observe(0.6);  // sampled-out → still no exemplar
  }
  EXPECT_FALSE(h.snapshot().exemplars[0].valid);

  TraceContext in_ctx = make_trace_context("t", 1);
  in_ctx.sampled = true;
  {
    TraceScope scope(in_ctx);
    h.observe(0.7);
    h.observe(1.5);
  }
  HistogramSnapshot snap = h.snapshot();
  ASSERT_TRUE(snap.exemplars[0].valid);
  EXPECT_DOUBLE_EQ(snap.exemplars[0].value, 0.7);
  EXPECT_EQ(snap.exemplars[0].trace_hi, in_ctx.trace_hi);
  EXPECT_EQ(snap.exemplars[0].trace_lo, in_ctx.trace_lo);
  ASSERT_TRUE(snap.exemplars[1].valid);
  EXPECT_DOUBLE_EQ(snap.exemplars[1].value, 1.5);
}

TEST(Metrics, BucketLinesCarryExemplarTraceIds) {
  Registry reg;
  TraceContext ctx = make_trace_context("exemplar-tenant", 2);
  ctx.sampled = true;
  {
    TraceScope scope(ctx);
    reg.histogram("lat_seconds", {0.5, 1.0}).observe(0.25);
  }
  std::string out = reg.prometheus();
  const std::string hex = trace_id_hex(ctx.trace_hi, ctx.trace_lo);
  EXPECT_NE(out.find("lat_seconds_bucket{le=\"0.5\"} 1 # {trace_id=\"" + hex +
                     "\"} 0.25"),
            std::string::npos)
      << out;
}

TEST(Metrics, SampleEnumerationFiltersByPrefix) {
  Registry reg;
  reg.counter("acctee_ae_executions_total", "enclave=\"7\"").add(3);
  reg.counter("acctee_billing_logs_total", "tenant=\"a\"").add(2);
  reg.counter("unrelated_total").inc();
  reg.gauge("acctee_gateway_queue_depth", "shard=\"0\"").set(5);
  reg.histogram("acctee_gateway_shard_request_seconds", {0.5}).observe(0.1);

  auto ae = reg.counter_samples("acctee_ae_");
  ASSERT_EQ(ae.size(), 1u);
  EXPECT_EQ(ae[0].name, "acctee_ae_executions_total");
  EXPECT_EQ(ae[0].labels, "enclave=\"7\"");
  EXPECT_EQ(ae[0].value, 3u);
  EXPECT_EQ(reg.counter_samples().size(), 3u);
  ASSERT_EQ(reg.gauge_samples("acctee_gateway_").size(), 1u);
  ASSERT_EQ(reg.histogram_samples("acctee_gateway_").size(), 1u);
  EXPECT_EQ(reg.histogram_samples("acctee_gateway_")[0].snapshot.count, 1u);
}

TEST(Metrics, PrometheusExpositionParsesBackCleanly) {
  Registry reg;
  reg.set_help("requests_total", "All requests");
  reg.counter("requests_total",
              label_pair("tenant", "we\"ird\\t\nx") + ",shard=\"0\"")
      .add(11);
  reg.gauge("depth").set(-4);
  TraceContext ctx = make_trace_context("p", 0);
  ctx.sampled = true;
  {
    TraceScope scope(ctx);
    reg.histogram("lat_seconds", {0.5}).observe(0.1);
  }
  std::string out = reg.prometheus();

  // Minimal scrape parser: every non-comment line must be
  //   name[{labels}] value [# {exemplar} value]
  // with balanced braces, in-label quotes escaped, and a numeric value.
  size_t series = 0;
  size_t start = 0;
  while (start < out.size()) {
    size_t end = out.find('\n', start);
    if (end == std::string::npos) end = out.size();
    std::string line = out.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++series;
    std::string value_part;
    size_t brace = line.find('{');
    if (brace == std::string::npos) {
      size_t space = line.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      value_part = line.substr(space + 1);
    } else {
      // Find the matching close brace, honouring escapes inside quotes.
      bool quoted = false;
      size_t close = std::string::npos;
      for (size_t i = brace + 1; i < line.size(); ++i) {
        if (quoted && line[i] == '\\') {
          ++i;
        } else if (line[i] == '"') {
          quoted = !quoted;
        } else if (!quoted && line[i] == '}') {
          close = i;
          break;
        }
      }
      ASSERT_NE(close, std::string::npos) << line;
      value_part = line.substr(close + 1);
    }
    // strtod must consume a number right after the space.
    ASSERT_FALSE(value_part.empty()) << line;
    char* parse_end = nullptr;
    (void)std::strtod(value_part.c_str(), &parse_end);
    ASSERT_NE(parse_end, value_part.c_str()) << line;
    // Anything after the value must be an exemplar comment.
    while (parse_end != nullptr && *parse_end == ' ') ++parse_end;
    if (parse_end != nullptr && *parse_end != '\0') {
      EXPECT_EQ(*parse_end, '#') << line;
    }
  }
  EXPECT_GE(series, 6u);  // counter + gauge + 2 buckets + sum + count

  // Escaping round trip: undo escape_label_value and recover the original.
  const std::string escaped = escape_label_value("we\"ird\\t\nx");
  ASSERT_NE(out.find("tenant=\"" + escaped + "\""), std::string::npos);
  std::string unescaped;
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      char next = escaped[++i];
      unescaped += next == 'n' ? '\n' : next;
    } else {
      unescaped += escaped[i];
    }
  }
  EXPECT_EQ(unescaped, "we\"ird\\t\nx");
}

TEST(Metrics, ExpositionConformsAndEndsWithEof) {
  Registry reg;
  reg.set_help("requests_total", "All requests");
  reg.counter("requests_total", label_pair("tenant", "a\"b")).add(2);
  reg.gauge("depth").set(-1);
  reg.histogram("lat_seconds", {0.5, 1.0}).observe(0.25);
  std::string out = reg.prometheus();
  // A scrape consumer can tell a complete exposition from a truncated one.
  ASSERT_GE(out.size(), 6u);
  EXPECT_EQ(out.substr(out.size() - 6), "# EOF\n");
  EXPECT_EQ(check_exposition(out), std::nullopt);
  // The global registry (whatever other tests populated it) conforms too.
  EXPECT_EQ(check_exposition(Registry::global().prometheus()), std::nullopt);
}

TEST(Metrics, CheckExpositionCatchesMalformedScrapes) {
  Registry reg;
  reg.counter("good_total").add(1);
  std::string out = reg.prometheus();

  // Truncation anywhere before the terminator is detected.
  EXPECT_TRUE(check_exposition("").has_value());
  EXPECT_TRUE(check_exposition(out.substr(0, out.size() - 6)).has_value());
  // Content after # EOF means two scrapes were concatenated.
  EXPECT_TRUE(check_exposition(out + "late_total 1\n").has_value());
  // A sample must sit under its family's TYPE line.
  EXPECT_TRUE(
      check_exposition("# TYPE a counter\nb 1\n# EOF\n").has_value());
  // Duplicate TYPE lines, unknown kinds, and garbage values are rejected.
  EXPECT_TRUE(check_exposition("# TYPE a counter\na 1\n# TYPE a counter\n"
                               "a 2\n# EOF\n")
                  .has_value());
  EXPECT_TRUE(check_exposition("# TYPE a summary\na 1\n# EOF\n").has_value());
  EXPECT_TRUE(check_exposition("# TYPE a counter\na x\n# EOF\n").has_value());
  EXPECT_TRUE(check_exposition("# TYPE a counter\na{t=\"1\" 1\n# EOF\n")
                  .has_value());
}

TEST(Profile, FoldedScrubsControlBytesAndMergesCollidingFrames) {
  FuncProfiler profiler(1);
  profiler.on_block(0, 3, 4);
  profiler.on_block(1, 5, 6);
  // Control bytes and DEL scrub to '_'; two names that collide after
  // scrubbing merge into one deterministic row.
  std::vector<std::string> names = {"bad\x01name\x7f", "bad;name "};
  EXPECT_EQ(profiler.to_folded(&names), "wasm;bad_name_ 8\n");
  EXPECT_EQ(profiler.to_folded(&names), profiler.to_folded(&names));
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan in CI; names match ctest -R 'Concurrent')
// ---------------------------------------------------------------------------

TEST(ObsConcurrent, CounterExactTotalsWithConcurrentScrapes) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  Counter counter;
  std::atomic<bool> done{false};

  // A scraper hammers value() while writers add: every read must be
  // monotone (each shard cell only grows).
  std::thread scraper([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t now = counter.value();
      EXPECT_GE(now, last);
      last = now;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsConcurrent, HistogramCountAndSumExactUnderContention) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 20'000;
  Histogram hist({0.5, 1.5, 2.5});
  std::atomic<bool> done{false};

  std::thread scraper([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      HistogramSnapshot snap = hist.snapshot();
      EXPECT_GE(snap.count, last);
      last = snap.count;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) hist.observe(1.0);
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(snap.counts[1], uint64_t(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, double(kThreads) * kPerThread);
}

TEST(ObsConcurrent, RegistryLookupsFromManyThreads) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter("shared_total").inc();
        reg.gauge("g").add(1);
        reg.histogram("h", {1.0}).observe(0.1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared_total").value(), kThreads * 1000u);
  EXPECT_EQ(reg.gauge("g").value(), kThreads * 1000);
  EXPECT_EQ(reg.histogram("h", {1.0}).snapshot().count, kThreads * 1000u);
}

TEST(ObsConcurrent, TracerSpansFromManyThreads) {
  Tracer tracer(/*capacity=*/256);
  tracer.enable(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)tracer.snapshot();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        auto outer = tracer.span("outer");
        auto inner = tracer.span("inner");
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  // All spans either landed in the ring or were counted as dropped.
  EXPECT_EQ(tracer.snapshot().size() + tracer.dropped(),
            uint64_t(kThreads) * kSpansPerThread * 2);
}

}  // namespace
}  // namespace acctee::obs
