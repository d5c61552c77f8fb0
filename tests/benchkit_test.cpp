// The benchkit workload subsystem, end to end: JSON writer/parser round
// trips, the canonical table writer's numbers-as-numbers output, the
// scenario registry, and the dcolor-bench CLI driven through run_cli with
// test-local scenarios — quick runs emitting schema-complete BENCH_*.json
// (dcolor-bench/3; every other schema rejected), histogram and
// dropped-events round trips, stable checksums, the verification and
// parity failure paths, the --trace Chrome-trace emission, the
// --baseline regression gate tripping on an injected slowdown with a
// phase-attribution table naming the guilty phase, and the same gate
// failing on determinism drift (checksum, charged cost or a metric/*
// histogram).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchkit/cli.h"
#include "src/benchkit/json.h"
#include "src/benchkit/report.h"
#include "src/benchkit/runner.h"
#include "src/benchkit/scenario.h"
#include "src/benchkit/verify.h"
#include "src/congest/tree.h"
#include "src/graph/generators.h"
#include "src/obs/obs.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::benchkit {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ test rig

// Deterministic busy work so wall times are real but tiny; the checksum
// is a pure function of `salt`, so reps and re-runs agree.
Outcome busy_outcome(std::uint64_t salt, const RunConfig& c) {
  volatile std::uint64_t acc = salt;
  for (int i = 0; i < 400000; ++i) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  Outcome o;
  o.n = c.quick ? 64 : 256;
  o.m = 2 * o.n;
  o.seed = c.seed;
  o.metrics.rounds = 10 + static_cast<std::int64_t>(salt);
  o.metrics.messages = 100;
  o.metrics.total_bits = 800;
  o.metrics.max_message_bits = 8;
  o.checksum = checksum_values({static_cast<std::int64_t>(salt), o.n});
  o.verified = true;
  // A deterministic count-valued probe, so records carry a metric/*
  // histogram for the baseline gate to compare.
  obs::value(obs::kCatMetric, "testkit.salt", static_cast<std::int64_t>(salt));
  return o;
}

Scenario busy_scenario(const std::string& name, std::uint64_t salt) {
  return Scenario{name, "deterministic busy-loop test scenario", "synthetic", "testkit",
                  "network", "", /*scalable=*/false, [salt](const RunConfig& c) {
                    return Prepared{[salt, c] { return busy_outcome(salt, c); }};
                  }};
}

REGISTER_SCENARIO(busy_scenario("testkit.busy.a", 1));
REGISTER_SCENARIO(busy_scenario("testkit.busy.b", 2));

// Fails verification on every run.
REGISTER_SCENARIO(Scenario{
    "testkit.bad", "always fails verification", "synthetic", "testkit", "network", "",
    /*scalable=*/false, [](const RunConfig& c) {
      return Prepared{[c] {
        Outcome o = busy_outcome(3, c);
        o.verified = false;
        return o;
      }};
    }});

// Produces a different checksum on every execution.
REGISTER_SCENARIO(Scenario{
    "testkit.unstable", "checksum changes across reps", "synthetic", "testkit", "network", "",
    /*scalable=*/false, [](const RunConfig& c) {
      return Prepared{[c] {
        static std::uint64_t counter = 0;
        Outcome o = busy_outcome(4, c);
        o.checksum = ++counter;
        return o;
      }};
    }});

// A parity pair that disagrees: same parity key and n, different outputs.
Scenario parity_scenario(const std::string& name, const std::string& transport,
                         std::uint64_t salt) {
  return Scenario{name, "parity-mismatch pair", "synthetic", "testkit", transport,
                  "testkit.parity", /*scalable=*/false, [salt](const RunConfig& c) {
                    return Prepared{[salt, c] { return busy_outcome(salt, c); }};
                  }};
}

REGISTER_SCENARIO(parity_scenario("testkit.parity.net", "network", 5));
REGISTER_SCENARIO(parity_scenario("testkit.parity.eng", "engine", 6));

// A parity pair that agrees on the checksum but diverges in Metrics —
// the bit-identical contract covers both.
Scenario metrics_parity_scenario(const std::string& name, const std::string& transport,
                                 std::int64_t rounds) {
  return Scenario{name, "metrics-mismatch pair", "synthetic", "testkit", transport,
                  "testkit.parity2", /*scalable=*/false, [rounds](const RunConfig& c) {
                    return Prepared{[rounds, c] {
                      Outcome o = busy_outcome(8, c);
                      o.metrics.rounds = rounds;
                      return o;
                    }};
                  }};
}

REGISTER_SCENARIO(metrics_parity_scenario("testkit.parity2.net", "network", 100));
REGISTER_SCENARIO(metrics_parity_scenario("testkit.parity2.eng", "engine", 101));

// A scalable scenario, to cover thread expansion and file naming.
REGISTER_SCENARIO(Scenario{
    "testkit.scalable", "thread-expanded test scenario", "synthetic", "testkit", "engine", "",
    /*scalable=*/true, [](const RunConfig& c) {
      return Prepared{[c] { return busy_outcome(7, c); }};
    }});

// Floods a BFS tree on the parallel engine, so its records carry the
// engine's metric/* probes (roster, round messages, serial cutoff).
REGISTER_SCENARIO(Scenario{
    "testkit.engine", "engine BFS flood test scenario", "grid", "testkit", "engine", "",
    /*scalable=*/false, [](const RunConfig& c) {
      return Prepared{[c] {
        const Graph g = make_grid(6, 6);
        runtime::ParallelEngine eng(g, 2);
        congest::TreeData tree;
        runtime::build_tree_data(eng, 0, &tree);
        Outcome o;
        o.n = g.num_nodes();
        o.m = g.num_edges();
        o.seed = c.seed;
        o.metrics = eng.metrics();
        o.checksum = checksum_values({tree.depth, static_cast<std::int64_t>(tree.level_nodes.size())});
        o.verified = tree.depth == 10;
        return o;
      }};
    }});

// Opens cat="phase" obs spans during its run, so the profiled rep records
// a phase breakdown — the attribution test's raw material. The spans are
// no-ops during the timed reps (no session active).
REGISTER_SCENARIO(Scenario{
    "testkit.phased", "phase-instrumented busy scenario", "synthetic", "testkit", "network", "",
    /*scalable=*/false, [](const RunConfig& c) {
      return Prepared{[c] {
        volatile std::uint64_t acc = 12;
        {
          obs::Span slow(obs::kCatPhase, "testkit.phase.slow");
          for (int i = 0; i < 400000; ++i) acc = acc * 6364136223846793005ull + 1;
        }
        {
          obs::Span fast(obs::kCatPhase, "testkit.phase.fast");
          for (int i = 0; i < 20000; ++i) acc = acc * 6364136223846793005ull + 1;
        }
        return busy_outcome(12, c);
      }};
    }});

// Runs `fn` against a scratch stdout, returning (exit code, captured
// output).
std::pair<int, std::string> capture(const std::function<int(std::FILE*)>& fn) {
  std::FILE* scratch = std::tmpfile();
  const int code = fn(scratch ? scratch : stdout);
  std::string out;
  if (scratch) {
    std::rewind(scratch);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), scratch)) > 0) out.append(buf, got);
    std::fclose(scratch);
  }
  return {code, std::move(out)};
}

// run_cli on argv built from strings.
std::pair<int, std::string> cli_capture(std::vector<std::string> args) {
  args.insert(args.begin(), "dcolor-bench");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return capture([&](std::FILE* out) {
    return run_cli(static_cast<int>(argv.size()), argv.data(), out);
  });
}

int cli(std::vector<std::string> args) { return cli_capture(std::move(args)).first; }

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

fs::path fresh_dir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / ("dcolor_benchkit_test_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------ JSON layer

TEST(BenchkitJson, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote(std::string("x\n\t\x01y")), "\"x\\n\\t\\u0001y\"");
}

TEST(BenchkitJson, NumberTokenValidation) {
  JsonValue v;
  std::string err;
  for (const char* ok : {"0", "-1", "3.5", "1e9", "-2.25E-3", "42"}) {
    EXPECT_TRUE(json_parse(ok, &v, &err)) << ok << ": " << err;
    EXPECT_EQ(v.kind, JsonValue::Kind::kNumber) << ok;
  }
  for (const char* bad : {"", "042", ".5", "1.", "0x10", "nan", "inf", "1e", "--3", "1-"}) {
    EXPECT_FALSE(json_parse(bad, &v, &err)) << bad;
  }
}

TEST(BenchkitJson, NumberFormattingStaysValidJson) {
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(static_cast<std::int64_t>(-7)), "-7");
  // Above the int64 round-trip guard: must not hit the float->int cast.
  for (double x : {1e20, -3.5e18, 0.001953125}) {
    JsonValue v;
    std::string err;
    ASSERT_TRUE(json_parse(json_number(x), &v, &err)) << json_number(x) << ": " << err;
    EXPECT_EQ(v.kind, JsonValue::Kind::kNumber);
    EXPECT_DOUBLE_EQ(v.number, x);
  }
}

TEST(BenchkitJson, ParseRoundTripsWriterOutput) {
  JsonObjectWriter w;
  w.field("name", "a \"quoted\"\nvalue")
      .field("count", static_cast<std::int64_t>(42))
      .field("ms", 1.5)
      .field("flag", true)
      .field_raw("list", "[1,2,3]");
  const std::string text = w.close();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(text, &v, &err)) << err;
  EXPECT_EQ(v.string_or("name", ""), "a \"quoted\"\nvalue");
  EXPECT_EQ(v.number_or("count", 0), 42);
  EXPECT_DOUBLE_EQ(v.number_or("ms", 0), 1.5);
  EXPECT_TRUE(v.bool_or("flag", false));
  ASSERT_NE(v.find("list"), nullptr);
  ASSERT_EQ(v.find("list")->array.size(), 3u);
  EXPECT_EQ(v.find("list")->array[1].number, 2);
}

TEST(BenchkitJson, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("{\"a\":}", &v, &err));
  EXPECT_FALSE(json_parse("[1,2", &v, &err));
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(json_parse("{\"a\":042}", &v, &err));
}

// ------------------------------------------------------------ registry

TEST(BenchkitRegistry, TestScenariosRegisteredAndUnique) {
  EXPECT_EQ(all_scenarios().size(), 11u);  // exactly this suite's scenarios
}

// A duplicate name would silently drop a workload; registration aborts
// loudly instead, so any run of the binary catches the collision.
TEST(BenchkitRegistryDeathTest, DuplicateRegistrationAborts) {
  EXPECT_DEATH(register_scenario(busy_scenario("testkit.busy.a", 1)),
               "duplicate scenario registration");
}

TEST(BenchkitRegistry, ListRespectsMinScenarios) {
  EXPECT_EQ(cli({"--list"}), kExitOk);
  EXPECT_EQ(cli({"--list", "--min-scenarios", "11"}), kExitOk);
  EXPECT_EQ(cli({"--list", "--min-scenarios", "12"}), kExitVerifyFailure);
}

TEST(BenchkitCli, RejectsInvalidThreadCounts) {
  // The old behavior silently dropped bad entries and ran the sweep at
  // whatever survived; every malformed list is now a usage error.
  for (const char* bad : {"0", "-3", "0,-3", "1,0,2", "2000", "abc", ",", "1,abc", "2x"}) {
    EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.scalable", "--threads", bad}),
              kExitUsage)
        << "--threads " << bad;
  }
  // Boundary values stay accepted (no ThreadPool is spawned by the test
  // scenario, so 1024 is just a config value here).
  EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.scalable", "--threads",
                 "1,1024"}),
            kExitOk);
}

TEST(BenchkitCli, RejectsUnknownFlags) {
  EXPECT_EQ(cli({"--frobnicate"}), kExitUsage);
  EXPECT_EQ(cli({"stray"}), kExitUsage);
  EXPECT_EQ(cli({"--filter", "no.such.scenario"}), kExitUsage);
  // Boolean flags take no value: "--quick=1" would otherwise validate
  // but be silently ignored, running full-size against quick baselines.
  EXPECT_EQ(cli({"--quick=1"}), kExitUsage);
  EXPECT_EQ(cli({"--list=x"}), kExitUsage);
  EXPECT_EQ(cli({"--filter=testkit.busy.a", "--list"}), kExitOk);  // valued '=' form ok
}

// Every numeric flag is parsed strictly: "--threshold abc" used to gate
// at +0%, "--seed -1" wrapped to 2^64-1, "--reps abc" ran 3 reps and
// "--min-scenarios abc" skipped the registry check, all without a word.
TEST(BenchkitCli, RejectsMalformedNumericFlags) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--reps", "abc"},           {"--reps", "0"},
      {"--reps", "2x"},            {"--warmup", "-1"},
      {"--warmup", "abc"},         {"--seed", "-1"},
      {"--seed", "abc"},           {"--seed", "18446744073709551616"},
      {"--seed", "0x10"},          {"--threshold", "abc"},
      {"--threshold", "-5"},       {"--threshold", "nan"},
      {"--threshold", "inf"},      {"--abs-slack-ms", "abc"},
      {"--abs-slack-ms", "-1"},    {"--min-scenarios", "abc"},
      {"--min-scenarios", "-1"},   {"--min-scenarios", "3.5"},
  };
  for (const auto& [flag, value] : bad) {
    EXPECT_EQ(cli({"--list", flag, value}), kExitUsage) << flag << " " << value;
    EXPECT_EQ(cli({"--list", flag + "=" + value}), kExitUsage) << flag << "=" << value;
  }
  // A valued flag with its value missing is a usage error, not a default.
  EXPECT_EQ(cli({"--list", "--seed"}), kExitUsage);
  EXPECT_EQ(cli({"--list", "--reps="}), kExitUsage);
  // Boundary values stay accepted.
  EXPECT_EQ(cli({"--list", "--reps", "1", "--warmup", "0", "--seed", "18446744073709551615",
                 "--threshold", "0", "--abs-slack-ms", "0.5", "--min-scenarios", "0"}),
            kExitOk);
}

// ------------------------------------------------------------ runner + records

TEST(BenchkitRunner, QuickRunEmitsSchemaCompleteRecords) {
  const fs::path dir = fresh_dir("records");
  ASSERT_EQ(cli({"--quick", "--reps", "2", "--warmup", "1", "--filter", "testkit.busy",
                 "--json-dir", dir.string()}),
            kExitOk);

  for (const char* leaf : {"BENCH_testkit_busy_a.json", "BENCH_testkit_busy_b.json"}) {
    const std::string text = slurp(dir / leaf);
    ASSERT_FALSE(text.empty()) << leaf;
    JsonValue v;
    std::string err;
    ASSERT_TRUE(json_parse(text, &v, &err)) << err;
    // The self-describing trajectory schema, satellite-complete:
    // seed, n, threads and the git describe string in every record.
    for (const char* key :
         {"schema", "scenario", "family", "algorithm", "transport", "n", "m", "seed",
          "threads", "scalable", "quick", "warmup", "reps", "wall_ms", "wall_ms_min",
          "wall_ms_max", "rounds", "messages", "total_bits", "max_message_bits", "checksum",
          "verified", "checksum_stable", "rss_peak_kb", "nodes_rounds_per_sec",
          "profiled_wall_ms", "phase_wall_ms", "dropped_events", "histograms", "git"}) {
      EXPECT_NE(v.find(key), nullptr) << key << " missing from " << leaf;
    }
    EXPECT_EQ(v.string_or("schema", ""), kRecordSchema);
    // /2 fields: throughput populated (wall and rounds are nonzero for
    // the busy scenarios), phase breakdown a nested object.
    EXPECT_GT(v.number_or("nodes_rounds_per_sec", 0), 0.0);
    EXPECT_GT(v.number_or("profiled_wall_ms", 0), 0.0);  // the profiled rep, timed
    ASSERT_NE(v.find("phase_wall_ms"), nullptr);
    EXPECT_EQ(v.find("phase_wall_ms")->kind, JsonValue::Kind::kObject);
    // /3 fields: histograms a nested object, dropped_events a number.
    ASSERT_NE(v.find("histograms"), nullptr);
    EXPECT_EQ(v.find("histograms")->kind, JsonValue::Kind::kObject);
    EXPECT_EQ(v.number_or("dropped_events", -1), 0.0);
    EXPECT_EQ(v.find("n")->kind, JsonValue::Kind::kNumber);
    EXPECT_EQ(v.number_or("n", 0), 64);  // quick size
    EXPECT_EQ(v.number_or("seed", 0), 42);
    EXPECT_EQ(v.number_or("threads", 0), 1);
    EXPECT_TRUE(v.bool_or("quick", false));
    EXPECT_TRUE(v.bool_or("verified", false));
    EXPECT_TRUE(v.bool_or("checksum_stable", false));
    EXPECT_FALSE(v.string_or("git", "").empty());
    EXPECT_EQ(v.string_or("checksum", "").substr(0, 2), "0x");

    Record rec;
    ASSERT_TRUE(parse_record(text, &rec, &err)) << err;
    EXPECT_EQ(record_filename(rec), leaf);
  }
}

// The parser reads the current schema only: an older or unknown schema
// is a diagnostic, never a record with silently defaulted fields.
TEST(BenchkitReport, RejectsEveryOtherSchema) {
  Record r;
  r.scenario = "testkit.schema";
  r.wall_ms = 5.0;
  const std::string text = record_json(r);
  const std::string cur = kRecordSchema;
  ASSERT_NE(text.find(cur), std::string::npos);

  Record parsed;
  std::string err;
  ASSERT_TRUE(parse_record(text, &parsed, &err)) << err;
  for (const char* other : {"dcolor-bench/0", "dcolor-bench/1", "dcolor-bench/2"}) {
    std::string doctored = text;
    doctored.replace(doctored.find(cur), cur.size(), other);
    err.clear();
    EXPECT_FALSE(parse_record(doctored, &parsed, &err)) << other;
    EXPECT_NE(err.find("unexpected schema"), std::string::npos) << other << ": " << err;
  }
}

// Histograms and dropped events survive a writer -> parser round trip
// field by field, including the sparse bucket list.
TEST(BenchkitReport, V3HistogramsAndDroppedEventsRoundTrip) {
  Record r;
  r.scenario = "testkit.v3roundtrip";
  r.wall_ms = 5.0;
  r.dropped_events = 7;
  RecordHistogram h;
  h.key = "metric/engine.roster";
  h.count = 3;
  h.total = 12;
  h.min = 2;
  h.max = 6;
  h.p50 = 3;
  h.p90 = 6;
  h.p99 = 6;
  h.buckets = {{2, 2}, {3, 1}};
  r.histograms.push_back(h);

  Record parsed;
  std::string err;
  ASSERT_TRUE(parse_record(record_json(r), &parsed, &err)) << err;
  EXPECT_EQ(parsed.dropped_events, 7);
  ASSERT_EQ(parsed.histograms.size(), 1u);
  const RecordHistogram& p = parsed.histograms[0];
  EXPECT_EQ(p.key, "metric/engine.roster");
  EXPECT_EQ(p.count, 3);
  EXPECT_EQ(p.total, 12);
  EXPECT_EQ(p.min, 2);
  EXPECT_EQ(p.max, 6);
  EXPECT_EQ(p.p50, 3);
  EXPECT_EQ(p.p90, 6);
  EXPECT_EQ(p.p99, 6);
  EXPECT_EQ(p.buckets, h.buckets);
}

// The profiled rep's wall time survives a writer -> parser round trip
// and is what the phases are compared with; a record written before the
// field existed still reads, with the median wall time standing in.
TEST(BenchkitReport, ProfiledWallRoundTripsAndOldRecordsStillRead) {
  Record r;
  r.scenario = "testkit.profiledwall";
  r.wall_ms = 5.0;
  r.profiled_wall_ms = 6.25;
  r.phase_wall_ms = {{"testkit.phase.slow", 6.0}};
  const std::string text = record_json(r);

  Record parsed;
  std::string err;
  ASSERT_TRUE(parse_record(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.profiled_wall_ms, 6.25);
  EXPECT_EQ(phase_reference_wall_ms(parsed), 6.25);

  const std::string field = "\"profiled_wall_ms\":";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos) << text;
  std::string old = text;
  old.erase(at, text.find(',', at) + 1 - at);
  ASSERT_EQ(old.find(field), std::string::npos) << old;
  ASSERT_TRUE(parse_record(old, &parsed, &err)) << err << "\n" << old;
  EXPECT_EQ(parsed.profiled_wall_ms, 0.0);
  EXPECT_EQ(phase_reference_wall_ms(parsed), 5.0);
  EXPECT_EQ(parsed.phase_wall_ms, r.phase_wall_ms);
}

// The real pipeline end to end: a profiled scenario run whose record
// carries the obs histograms (with sane percentile ordering), parsed back
// from disk.
TEST(BenchkitRunner, RecordsCarryProfiledHistograms) {
  const fs::path dir = fresh_dir("hist_records");
  ASSERT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.phased", "--json-dir",
                 dir.string()}),
            kExitOk);
  Record rec;
  std::string err;
  ASSERT_TRUE(read_record_file((dir / "BENCH_testkit_phased.json").string(), &rec, &err))
      << err;
  ASSERT_FALSE(rec.histograms.empty());
  bool saw_slow = false;
  for (const RecordHistogram& h : rec.histograms) {
    EXPECT_GT(h.count, 0) << h.key;
    std::int64_t bucket_sum = 0;
    for (const auto& [bucket, cnt] : h.buckets) {
      EXPECT_GE(bucket, 0) << h.key;
      EXPECT_LT(bucket, obs::kNumHistogramBuckets) << h.key;
      bucket_sum += cnt;
    }
    EXPECT_EQ(bucket_sum, h.count) << h.key;
    EXPECT_LE(h.min, h.max) << h.key;
    EXPECT_LE(h.p50, h.p90) << h.key;
    EXPECT_LE(h.p90, h.p99) << h.key;
    EXPECT_LE(h.p99, h.max) << h.key;
    if (h.key == "phase/testkit.phase.slow") saw_slow = true;
  }
  EXPECT_TRUE(saw_slow);
  EXPECT_EQ(rec.dropped_events, 0);
}

TEST(BenchkitRunner, ProfiledRepRecordsPhaseBreakdownAndTrace) {
  RunnerOptions opt;
  opt.quick = true;
  opt.reps = 1;
  opt.warmup = 0;
  opt.trace = true;
  const Measurement m = run_scenario(busy_scenario("testkit.local.traced", 1), 1, opt);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m.profiled);
  EXPECT_TRUE(m.profile_checksum_matched);
  // The busy scenario touches no instrumented code, so the phase list is
  // empty — but the trace must still be a valid Chrome trace object.
  ASSERT_FALSE(m.trace_json.empty());
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(m.trace_json, &v, &err)) << err;
  ASSERT_NE(v.find("traceEvents"), nullptr);
  EXPECT_EQ(v.find("traceEvents")->kind, JsonValue::Kind::kArray);
  ASSERT_NE(v.find("dcolorHistograms"), nullptr);
}

// A profiled rep that does not reproduce the measured checksum fails the
// measurement — "tracing never perturbs results" is enforced on every
// benchmark run, not only in the dedicated determinism gate.
TEST(BenchkitRunner, ProfiledRepChecksumMismatchFailsMeasurement) {
  auto counter = std::make_shared<int>(0);
  Scenario s{"testkit.local.traceflaky", "final (profiled) execution differs", "synthetic",
             "testkit", "network", "", /*scalable=*/false, [counter](const RunConfig& c) {
               return Prepared{[counter, c] {
                 Outcome o = busy_outcome(11, c);
                 // reps 0..1 agree; the profiled 3rd execution diverges.
                 if (++*counter > 2) o.checksum ^= 0x1ull;
                 return o;
               }};
             }};
  RunnerOptions opt;
  opt.quick = true;
  opt.reps = 2;
  opt.warmup = 0;
  const Measurement m = run_scenario(s, 1, opt);
  EXPECT_TRUE(m.checksum_stable);
  EXPECT_FALSE(m.profile_checksum_matched);
  EXPECT_FALSE(m.ok());
}

TEST(BenchkitCli, TraceFlagWritesChromeTracePerInstance) {
  const fs::path traces = fresh_dir("traces");
  ASSERT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.scalable", "--threads", "1,3",
                 "--trace", traces.string()}),
            kExitOk);
  for (const char* leaf : {"TRACE_testkit_scalable_t1.json", "TRACE_testkit_scalable_t3.json"}) {
    const std::string text = slurp(traces / leaf);
    ASSERT_FALSE(text.empty()) << leaf;
    JsonValue v;
    std::string err;
    ASSERT_TRUE(json_parse(text, &v, &err)) << err << " in " << leaf;
    EXPECT_NE(v.find("traceEvents"), nullptr) << leaf;
  }
}

TEST(BenchkitRunner, ChecksumsStableAcrossSeparateRuns) {
  const fs::path dir1 = fresh_dir("stable1");
  const fs::path dir2 = fresh_dir("stable2");
  ASSERT_EQ(cli({"--quick", "--reps", "2", "--filter", "testkit.busy", "--json-dir",
                 dir1.string()}),
            kExitOk);
  ASSERT_EQ(cli({"--quick", "--reps", "2", "--filter", "testkit.busy", "--json-dir",
                 dir2.string()}),
            kExitOk);
  for (const char* leaf : {"BENCH_testkit_busy_a.json", "BENCH_testkit_busy_b.json"}) {
    Record a, b;
    std::string err;
    ASSERT_TRUE(read_record_file((dir1 / leaf).string(), &a, &err)) << err;
    ASSERT_TRUE(read_record_file((dir2 / leaf).string(), &b, &err)) << err;
    EXPECT_EQ(a.checksum, b.checksum) << leaf;
    EXPECT_TRUE(a.checksum_stable);
    EXPECT_EQ(a.rounds, b.rounds);
  }
}

TEST(BenchkitRunner, ScalableScenarioExpandsOverThreads) {
  const fs::path dir = fresh_dir("scalable");
  ASSERT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.scalable", "--threads", "1,3",
                 "--json-dir", dir.string()}),
            kExitOk);
  Record r1, r3;
  std::string err;
  ASSERT_TRUE(read_record_file((dir / "BENCH_testkit_scalable_t1.json").string(), &r1, &err))
      << err;
  ASSERT_TRUE(read_record_file((dir / "BENCH_testkit_scalable_t3.json").string(), &r3, &err))
      << err;
  EXPECT_EQ(r1.threads, 1);
  EXPECT_EQ(r3.threads, 3);
  EXPECT_TRUE(r3.scalable);
}

TEST(BenchkitRunner, VerificationFailureExitsNonZero) {
  EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.bad"}), kExitVerifyFailure);
}

TEST(BenchkitRunner, UnstableChecksumExitsNonZero) {
  EXPECT_EQ(cli({"--quick", "--reps", "2", "--filter", "testkit.unstable"}),
            kExitVerifyFailure);
}

// A scenario whose FIRST execution produces a different checksum than
// every later one (a cold-start transient, e.g. a lazily built cache).
// Not registered: driven through run_scenario directly.
Scenario transient_scenario(const std::string& name) {
  auto counter = std::make_shared<int>(0);
  return Scenario{name, "first execution differs", "synthetic", "testkit", "network", "",
                  /*scalable=*/false, [counter](const RunConfig& c) {
                    return Prepared{[counter, c] {
                      Outcome o = busy_outcome(9, c);
                      if ((*counter)++ == 0) o.checksum ^= 0xdeadbeefull;
                      return o;
                    }};
                  }};
}

TEST(BenchkitRunner, WarmupTransientReportedButDoesNotFailStability) {
  RunnerOptions opt;
  opt.quick = true;
  opt.reps = 2;
  opt.warmup = 1;
  // With one warmup rep the transient is absorbed: the measured reps
  // agree among themselves, so the gate passes — but the warmup/measured
  // mismatch is still reported. (The old single-first_checksum tracking
  // compared everything against the WARMUP execution and flagged this
  // run unstable.)
  const Measurement warmed = run_scenario(transient_scenario("testkit.local.transient1"), 1, opt);
  EXPECT_TRUE(warmed.checksum_stable);
  EXPECT_FALSE(warmed.warmup_checksum_matched);
  EXPECT_TRUE(warmed.ok());

  // With no warmup the transient lands inside the measured reps and must
  // still fail the gate; warmup matching is vacuously true.
  opt.warmup = 0;
  opt.reps = 3;
  const Measurement cold = run_scenario(transient_scenario("testkit.local.transient2"), 1, opt);
  EXPECT_FALSE(cold.checksum_stable);
  EXPECT_FALSE(cold.ok());
  EXPECT_TRUE(cold.warmup_checksum_matched);

  // A steady scenario is clean on both flags.
  opt.warmup = 1;
  opt.reps = 2;
  const Measurement steady = run_scenario(busy_scenario("testkit.local.steady", 1), 1, opt);
  EXPECT_TRUE(steady.checksum_stable);
  EXPECT_TRUE(steady.warmup_checksum_matched);
}

// Allocates and touches ~64 MiB for the duration of each execution; the
// buffer is freed (and, being mmap-sized, returned to the OS) before the
// next scenario runs.
Scenario hog_scenario() {
  return Scenario{"testkit.local.hog", "touches 64 MiB during run", "synthetic", "testkit",
                  "network", "", /*scalable=*/false, [](const RunConfig& c) {
                    return Prepared{[c] {
                      constexpr std::size_t kBytes = 64u << 20;
                      std::vector<unsigned char> buf(kBytes);
                      for (std::size_t i = 0; i < kBytes; i += 512) {
                        buf[i] = static_cast<unsigned char>(i);
                      }
                      Outcome o = busy_outcome(buf[kBytes - 512] % 4, c);
                      return o;
                    }};
                  }};
}

TEST(BenchkitRunner, RssIsPerScenarioNotProcessLifetime) {
  RunnerOptions opt;
  opt.quick = true;
  opt.reps = 1;
  opt.warmup = 0;
  const Measurement hog = run_scenario(hog_scenario(), 1, opt);
  const Measurement lean = run_scenario(busy_scenario("testkit.local.lean", 1), 1, opt);
  if (hog.rss_peak_kb == 0 && lean.rss_peak_kb == 0) {
    GTEST_SKIP() << "RSS measurement unsupported on this platform";
  }
  EXPECT_GE(hog.rss_peak_kb, 64 * 1024) << "hog's own footprint must show in its figure";
  // The regression this guards: rss_peak_kb used to be the process
  // LIFETIME peak, so any scenario run after the hog reported a figure
  // monotonically coupled to the hog's (lean >= hog). Per-scenario
  // measurement must show the lean scenario well below it.
  EXPECT_LE(lean.rss_peak_kb + 32 * 1024, hog.rss_peak_kb);
}

TEST(BenchkitRunner, ParityMismatchExitsNonZeroUnlessDisabled) {
  EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.parity."}),
            kExitVerifyFailure);
  EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.parity.", "--no-parity"}),
            kExitOk);
}

TEST(BenchkitRunner, MetricsDivergenceAloneFailsParity) {
  // Same checksum, different rounds: the parity fingerprint covers the
  // full Metrics tuple, not just the output.
  EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.parity2"}),
            kExitVerifyFailure);
}

// ------------------------------------------------------------ baseline gate

TEST(BenchkitBaseline, HonestBaselinePassesInjectedSlowdownFails) {
  const fs::path current = fresh_dir("baseline_current");
  ASSERT_EQ(cli({"--quick", "--reps", "3", "--filter", "testkit.busy", "--json-dir",
                 current.string()}),
            kExitOk);

  // Honest comparison: the same machine moments apart; a huge threshold
  // makes this immune to scheduler noise.
  EXPECT_EQ(cli({"--quick", "--reps", "3", "--filter", "testkit.busy", "--baseline",
                 current.string(), "--threshold", "400", "--abs-slack-ms", "5"}),
            kExitOk);

  // Injected slowdown: doctor one baseline to claim the workload used to
  // run 1000x faster. Calibration takes the median ratio (the untouched
  // record), so the doctored scenario must regress and exit code 2.
  const fs::path doctored = fresh_dir("baseline_doctored");
  for (const char* leaf : {"BENCH_testkit_busy_a.json", "BENCH_testkit_busy_b.json"}) {
    Record rec;
    std::string err;
    ASSERT_TRUE(read_record_file((current / leaf).string(), &rec, &err)) << err;
    if (std::string(leaf) == "BENCH_testkit_busy_a.json") {
      rec.wall_ms /= 1000.0;
      rec.wall_ms_min /= 1000.0;
      rec.wall_ms_max /= 1000.0;
    }
    ASSERT_TRUE(write_record_file(doctored.string(), rec, &err)) << err;
  }
  EXPECT_EQ(cli({"--quick", "--reps", "3", "--filter", "testkit.busy", "--baseline",
                 doctored.string(), "--threshold", "15", "--abs-slack-ms", "0.01"}),
            kExitRegression);
}

TEST(BenchkitBaseline, PartialMissingToleratedAllMissingFails) {
  // A baseline covering only one of the two scenarios: the uncovered one
  // is a benign "(no baseline)" (new scenarios gate after the next
  // refresh) and the run passes.
  const fs::path current = fresh_dir("baseline_partial_current");
  ASSERT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.busy", "--json-dir",
                 current.string()}),
            kExitOk);
  const fs::path partial = fresh_dir("baseline_partial");
  fs::copy_file(current / "BENCH_testkit_busy_a.json",
                partial / "BENCH_testkit_busy_a.json");
  EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.busy", "--baseline",
                 partial.string(), "--threshold", "400", "--abs-slack-ms", "5"}),
            kExitOk);

  // Zero matches (wrong path, wholesale rename) must not pass vacuously.
  EXPECT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.busy", "--baseline",
                 (partial / "nonexistent").string(), "--threshold", "15"}),
            kExitUsage);

  // Instance mismatch: a full-size run against quick baselines is
  // incomparable — treated as missing, and all-incomparable fails like
  // all-missing instead of gating on nonsense ratios.
  EXPECT_EQ(cli({"--reps", "1", "--filter", "testkit.busy", "--baseline", partial.string(),
                 "--threshold", "400"}),
            kExitUsage);
}

// Determinism drift fails the gate with the verification exit code: a
// baseline whose checksum, or whose total_bits, differs from a fresh run
// of the same scenario names the drifted field, even though every wall
// time is well inside its limit.
TEST(BenchkitBaseline, DriftFromBaselineFailsLikeVerification) {
  const fs::path current = fresh_dir("drift_current");
  ASSERT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.busy", "--json-dir",
                 current.string()}),
            kExitOk);
  struct Doctor {
    const char* leaf;
    const char* field;
    void (*apply)(Record*);
  };
  const Doctor doctors[] = {
      {"checksum", "checksum", [](Record* r) { r->checksum = "0x0000000000000bad"; }},
      {"total_bits", "total_bits", [](Record* r) { r->total_bits += 1; }},
  };
  for (const Doctor& d : doctors) {
    const fs::path doctored = fresh_dir(std::string("drift_") + d.leaf);
    for (const char* leaf : {"BENCH_testkit_busy_a.json", "BENCH_testkit_busy_b.json"}) {
      Record rec;
      std::string err;
      ASSERT_TRUE(read_record_file((current / leaf).string(), &rec, &err)) << err;
      if (std::string(leaf) == "BENCH_testkit_busy_b.json") d.apply(&rec);
      ASSERT_TRUE(write_record_file(doctored.string(), rec, &err)) << err;
    }
    const auto [code, out] =
        cli_capture({"--quick", "--reps", "1", "--filter", "testkit.busy", "--baseline",
                     doctored.string(), "--threshold", "400", "--abs-slack-ms", "5"});
    EXPECT_EQ(code, kExitVerifyFailure) << d.field << "\n" << out;
    const std::size_t at = out.find("BENCH_testkit_busy_b.json");
    ASSERT_NE(at, std::string::npos) << out;
    const std::string line = out.substr(at, out.find('\n', at) - at);
    EXPECT_NE(line.find("DRIFT"), std::string::npos) << line;
    EXPECT_NE(line.find(std::string("drift vs baseline: ") + d.field), std::string::npos)
        << line;
  }
}

// The count-valued metric/* histograms are deterministic, so the gate
// compares them like a checksum: a baseline histogram with a different
// max, or missing altogether, drifts its record and exits 1. Time-valued
// histograms are never compared.
TEST(BenchkitBaseline, MetricHistogramDriftFailsLikeVerification) {
  const fs::path current = fresh_dir("hist_drift_current");
  ASSERT_EQ(cli({"--quick", "--reps", "1", "--filter", "testkit.busy", "--json-dir",
                 current.string()}),
            kExitOk);
  struct Doctor {
    const char* leaf;
    bool drifts;
    void (*apply)(Record*);
  };
  const Doctor doctors[] = {
      {"max", true,
       [](Record* r) {
         for (RecordHistogram& h : r->histograms) {
           if (h.key == "metric/testkit.salt") h.max += 1;
         }
       }},
      {"missing", true,
       [](Record* r) {
         std::erase_if(r->histograms,
                       [](const RecordHistogram& h) { return h.key == "metric/testkit.salt"; });
       }},
      {"timing", false,
       [](Record* r) {
         RecordHistogram h;
         h.key = "phase/testkit.elsewhere";
         h.count = 1;
         h.total = h.min = h.max = 12345;
         r->histograms.push_back(h);
       }},
  };
  for (const Doctor& d : doctors) {
    const fs::path doctored = fresh_dir(std::string("hist_drift_") + d.leaf);
    for (const char* leaf : {"BENCH_testkit_busy_a.json", "BENCH_testkit_busy_b.json"}) {
      Record rec;
      std::string err;
      ASSERT_TRUE(read_record_file((current / leaf).string(), &rec, &err)) << err;
      if (std::string(leaf) == "BENCH_testkit_busy_b.json") d.apply(&rec);
      ASSERT_TRUE(write_record_file(doctored.string(), rec, &err)) << err;
    }
    const auto [code, out] =
        cli_capture({"--quick", "--reps", "1", "--filter", "testkit.busy", "--baseline",
                     doctored.string(), "--threshold", "400", "--abs-slack-ms", "5"});
    EXPECT_EQ(code, d.drifts ? kExitVerifyFailure : kExitOk) << d.leaf << "\n" << out;
    const std::size_t at = out.find("BENCH_testkit_busy_b.json");
    ASSERT_NE(at, std::string::npos) << out;
    const std::string line = out.substr(at, out.find('\n', at) - at);
    EXPECT_EQ(line.find("DRIFT") != std::string::npos, d.drifts) << line;
    if (d.drifts) {
      EXPECT_NE(line.find("drift vs baseline: metric/testkit.salt"), std::string::npos) << line;
    }
  }
}

TEST(BenchkitBaseline, CalibrationNeutralizesUniformMachineSpeedChange) {
  // A baseline uniformly 3x faster (as if recorded on a faster box) must
  // not trip the calibrated gate, but must uncalibrated. The records carry
  // fixed wall times, so the verdict cannot depend on this machine's load.
  const fs::path faster = fresh_dir("calib_faster");
  std::vector<Record> current;
  for (const auto& [scenario, ms] : {std::pair{"calib.a", 30.0}, std::pair{"calib.b", 90.0}}) {
    Record r;
    r.scenario = scenario;
    r.transport = "network";
    r.n = 64;
    r.quick = true;
    r.seed = 42;
    r.reps = 3;
    r.wall_ms = r.wall_ms_min = r.wall_ms_max = ms;
    r.rounds = 10;
    r.checksum = "0x0000000000000001";
    r.verified = true;
    Record base = r;
    base.wall_ms = base.wall_ms_min = base.wall_ms_max = ms / 3.0;
    std::string err;
    ASSERT_TRUE(write_record_file(faster.string(), base, &err)) << err;
    current.push_back(r);
  }
  const BaselineReport calibrated =
      compare_with_baseline(current, faster.string(), 0.5, 0.01, /*calibrate=*/true);
  EXPECT_DOUBLE_EQ(calibrated.calibration, 3.0);
  EXPECT_EQ(calibrated.regressions, 0);
  EXPECT_EQ(calibrated.drifted, 0);
  EXPECT_EQ(calibrated.missing, 0);
  const BaselineReport uncalibrated =
      compare_with_baseline(current, faster.string(), 0.5, 0.01, /*calibrate=*/false);
  EXPECT_EQ(uncalibrated.calibration, 1.0);
  EXPECT_EQ(uncalibrated.regressions, 2);
  EXPECT_EQ(uncalibrated.drifted, 0);
}

// The acceptance criterion for the attribution tooling: on an injected
// slowdown, the gate's failure output must NAME the slow phase as the
// top attribution line — failures start half-diagnosed.
TEST(BenchkitBaseline, RegressionAttributionNamesTheSlowPhase) {
  const fs::path current = fresh_dir("attrib_current");
  ASSERT_EQ(cli({"--quick", "--reps", "2", "--filter", "testkit.phased", "--json-dir",
                 current.string()}),
            kExitOk);
  Record rec;
  std::string err;
  ASSERT_TRUE(read_record_file((current / "BENCH_testkit_phased.json").string(), &rec, &err))
      << err;
  ASSERT_FALSE(rec.phase_wall_ms.empty());

  // Doctor a baseline claiming the wall AND the slow phase used to run
  // 1000x faster; the fast phase is untouched, so virtually the whole
  // delta belongs to testkit.phase.slow.
  const fs::path doctored = fresh_dir("attrib_base");
  rec.wall_ms /= 1000.0;
  for (auto& [name, ms] : rec.phase_wall_ms) {
    if (name == "testkit.phase.slow") ms /= 1000.0;
  }
  ASSERT_TRUE(write_record_file(doctored.string(), rec, &err)) << err;

  const auto [code, out] =
      cli_capture({"--quick", "--reps", "2", "--filter", "testkit.phased", "--baseline",
                   doctored.string(), "--threshold", "15", "--abs-slack-ms", "0.01",
                   "--no-calibrate"});
  EXPECT_EQ(code, kExitRegression);
  EXPECT_NE(out.find("REGRESSION"), std::string::npos) << out;
  EXPECT_NE(out.find("phase attribution"), std::string::npos) << out;
  const std::size_t first = out.find("#1 ");
  ASSERT_NE(first, std::string::npos) << out;
  const std::string line = out.substr(first, out.find('\n', first) - first);
  EXPECT_NE(line.find("testkit.phase.slow"), std::string::npos) << out;
}

// ------------------------------------------------------------ report

Record report_record(const std::string& scenario, double wall_ms) {
  Record r;
  r.scenario = scenario;
  r.transport = "network";
  r.n = 64;
  r.quick = true;
  r.seed = 42;
  r.reps = 3;
  r.wall_ms = r.wall_ms_min = r.wall_ms_max = wall_ms;
  r.rounds = 10;
  r.checksum = "0x0000000000000001";
  r.verified = true;
  r.checksum_stable = true;
  r.git = "testgit";
  return r;
}

// The markdown line of one Summary row.
std::string summary_row(const std::string& markdown, const std::string& instance) {
  const std::size_t at = markdown.find("| " + instance + " |");
  if (at == std::string::npos) return "";
  return markdown.substr(at, markdown.find('\n', at) - at);
}

// A record that drifted and also ran slow reads DRIFT, as the exit code
// ranks drift (1) above a regression (2); a slow run that did not drift
// still reads REGRESSION.
TEST(BenchkitReport, DriftOutranksRegressionInVerdict) {
  BaselineLine line;
  EXPECT_STREQ(verdict(line), "ok");
  line.regressed = true;
  EXPECT_STREQ(verdict(line), "REGRESSION");
  line.drifted = true;
  EXPECT_STREQ(verdict(line), "DRIFT");
  line.regressed = false;
  EXPECT_STREQ(verdict(line), "DRIFT");
  line.missing = true;
  EXPECT_STREQ(verdict(line), "no baseline");
}

// `dcolor-trace report` shows the gate's own verdicts: one record
// slowed 10x, one drifted, one without a baseline, plus an unreadable
// file and a foreign-schema file that become warnings, never failures.
TEST(BenchkitReport, RendersGateVerdictsAndWarnings) {
  const fs::path cur = fresh_dir("report_current");
  const fs::path base = fresh_dir("report_base");
  std::string err;
  for (const char* name : {"t.ok", "t.ok2", "t.slow", "t.drift"}) {
    Record b = report_record(name, 10.0);
    if (std::string(name) == "t.drift") b.checksum = "0x0000000000000bad";
    ASSERT_TRUE(write_record_file(base.string(), b, &err)) << err;
    Record c = report_record(name, std::string(name) == "t.slow" ? 100.0 : 10.0);
    if (std::string(name) == "t.ok") {
      c.phase_wall_ms = {{"p.fast", 1.0}, {"p.slow", 6.0}};
      c.profiled_wall_ms = 8.0;
      RecordHistogram h;
      h.key = "phase/p.slow";
      h.count = 2;
      h.total = 6000000;
      h.p50 = h.p90 = h.p99 = h.max = 4000000;
      c.histograms.push_back(h);
    }
    ASSERT_TRUE(write_record_file(cur.string(), c, &err)) << err;
  }
  Record unverified = report_record("t.new", 10.0);
  unverified.verified = false;
  ASSERT_TRUE(write_record_file(cur.string(), unverified, &err)) << err;
  std::ofstream(cur / "BENCH_broken.json") << "{not json";
  std::ofstream(cur / "BENCH_old.json") << R"({"schema":"dcolor-bench/2","scenario":"old"})";

  const auto [code, md] =
      capture([&](std::FILE* out) { return run_report(cur.string(), base.string(), out); });
  EXPECT_EQ(code, 0);
  EXPECT_NE(md.find("5 record(s)"), std::string::npos) << md;
  EXPECT_NE(md.find("calibration 1.000"), std::string::npos) << md;
  EXPECT_NE(md.find("| ratio | limit ms | verdict |"), std::string::npos) << md;
  EXPECT_NE(summary_row(md, "t_ok").find("| ok |"), std::string::npos) << md;
  EXPECT_NE(summary_row(md, "t_slow").find("| REGRESSION |"), std::string::npos) << md;
  EXPECT_NE(summary_row(md, "t_drift").find("| DRIFT |"), std::string::npos) << md;
  EXPECT_NE(summary_row(md, "t_new").find("| no baseline |"), std::string::npos) << md;
  EXPECT_EQ(md.find("REGRESSION"), md.rfind("REGRESSION")) << md;  // one row only
  EXPECT_EQ(md.find("| DRIFT |"), md.rfind("| DRIFT |")) << md;

  // Phase breakdown (largest first), aggregate and percentiles in ms.
  EXPECT_NE(md.find("| t_ok | p.slow 6.00, p.fast 1.00 |"), std::string::npos) << md;
  // The phases' 7 ms against the profiled rep's own 8 ms, not the 10 ms median.
  EXPECT_NE(md.find("| t_ok | p.slow 6.00, p.fast 1.00 | 8.00 | 0.88 |"), std::string::npos)
      << md;
  EXPECT_NE(md.find("Aggregate across all records"), std::string::npos) << md;
  EXPECT_NE(md.find("| p.slow | 2 | 4.000 | 4.000 | 4.000 | 4.000 |"), std::string::npos) << md;

  const std::size_t failures = md.find("## Verification failures");
  ASSERT_NE(failures, std::string::npos) << md;
  EXPECT_NE(md.find("- **t_new**", failures), std::string::npos) << md;
  const std::size_t warnings = md.find("## Warnings");
  ASSERT_NE(warnings, std::string::npos) << md;
  EXPECT_NE(md.find("- BENCH_broken.json: ", warnings), std::string::npos) << md;
  EXPECT_NE(md.find("- BENCH_old.json: unexpected schema 'dcolor-bench/2'", warnings),
            std::string::npos)
      << md;

  // Without a baseline: the same sections, no gate columns.
  const auto [plain_code, plain] =
      capture([&](std::FILE* out) { return run_report(cur.string(), "", out); });
  EXPECT_EQ(plain_code, 0);
  EXPECT_EQ(plain.find("calibration"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("verdict"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("REGRESSION"), std::string::npos) << plain;
  for (const char* section : {"## Summary", "## Phase wall-time breakdown",
                              "## Phase latency percentiles", "## Verification failures",
                              "## Warnings"}) {
    EXPECT_NE(plain.find(section), std::string::npos) << section;
  }

  // The one reader keeps the readable records and names the rest.
  RecordDir rd;
  ASSERT_TRUE(read_record_dir(cur.string(), &rd, &err)) << err;
  EXPECT_EQ(rd.records.size(), 5u);
  EXPECT_EQ(rd.warnings.size(), 2u);
}

TEST(BenchkitReport, NoRecordExitsOne) {
  const fs::path empty = fresh_dir("report_empty");
  EXPECT_EQ(capture([&](std::FILE* out) { return run_report(empty.string(), "", out); }).first,
            1);
  std::ofstream(empty / "BENCH_broken.json") << "{not json";
  EXPECT_EQ(capture([&](std::FILE* out) { return run_report(empty.string(), "", out); }).first,
            1);
  EXPECT_EQ(capture([&](std::FILE* out) {
              return run_report((empty / "missing").string(), "", out);
            }).first,
            1);
}

// ------------------------------------------------------------ verifiers

TEST(BenchkitVerify, ProperColoringCheckers) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(proper_coloring(g, {0, 1, 0}));
  EXPECT_FALSE(proper_coloring(g, {0, 0, 1}));
  EXPECT_FALSE(proper_coloring(g, {0, kUncolored, 1}));
  EXPECT_TRUE(proper_partial_coloring(g, {0, kUncolored, 0}));
  EXPECT_FALSE(proper_partial_coloring(g, {0, 0, kUncolored}));
}

TEST(BenchkitVerify, ChecksumsDistinguishAndRepeat) {
  EXPECT_EQ(checksum_values({1, 2, 3}), checksum_values({1, 2, 3}));
  EXPECT_NE(checksum_values({1, 2, 3}), checksum_values({1, 2, 4}));
  EXPECT_NE(checksum_values({}), checksum_values({0}));
  EXPECT_EQ(checksum_bits({true, false}), checksum_bits({true, false}));
  EXPECT_NE(checksum_bits({true, false}), checksum_bits({false, true}));
}

}  // namespace
}  // namespace dcolor::benchkit
