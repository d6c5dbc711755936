// Unit + integration tests: the sweep campaign engine.
//
// The determinism contract is the subsystem's whole point, so the tests
// here are the enforcement: cache keys and cell seeds must match the golden
// byte for byte, parallel output must be bit-identical to serial, and a
// resumed campaign must never re-simulate a completed cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>

#if defined(__linux__)
#include <sched.h>
#endif

#include "dtnsim/harness/experiments.hpp"
#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/sweep/campaign.hpp"
#include "dtnsim/sweep/grid.hpp"
#include "dtnsim/sweep/pool.hpp"
#include "dtnsim/util/file.hpp"
#include "dtnsim/util/strfmt.hpp"
#include "golden.hpp"

namespace dtnsim::sweep {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dtnsim_sweep_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// The 12-cell grid the acceptance criteria call out: 3 kernels x 2 paths x
// 2 stream counts, kept cheap (2 s x 2 repeats).
GridSpec twelve_cell_grid() {
  GridSpec g;
  g.name = "t12";
  g.testbed = "esnet";
  g.kernels = {kern::KernelVersion::V5_15, kern::KernelVersion::V6_5,
               kern::KernelVersion::V6_8};
  g.paths = {"LAN", "WAN 63ms"};
  g.streams = {1, 2};
  g.duration_sec = 2;
  g.repeats = 2;
  return g;
}

void expect_same_result(const harness::TestResult& a, const harness::TestResult& b) {
  EXPECT_EQ(a.repeats, b.repeats);
  EXPECT_DOUBLE_EQ(a.avg_gbps, b.avg_gbps);
  EXPECT_DOUBLE_EQ(a.min_gbps, b.min_gbps);
  EXPECT_DOUBLE_EQ(a.max_gbps, b.max_gbps);
  EXPECT_DOUBLE_EQ(a.stdev_gbps, b.stdev_gbps);
  EXPECT_DOUBLE_EQ(a.avg_retransmits, b.avg_retransmits);
  EXPECT_DOUBLE_EQ(a.snd_cpu_pct, b.snd_cpu_pct);
  EXPECT_DOUBLE_EQ(a.rcv_cpu_pct, b.rcv_cpu_pct);
  EXPECT_EQ(a.samples_gbps, b.samples_gbps);
}

// ---- shared pool ---------------------------------------------------------

TEST(ParallelFor, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(4), 4);
  EXPECT_EQ(resolve_jobs(-3), 1);
  EXPECT_GE(resolve_jobs(0), 1);  // usable CPUs, at least one
}

#if defined(__linux__)
TEST(ParallelFor, ResolveJobsHonoursTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // Narrows this thread only, and widens it back before checking.
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const int narrowed = resolve_jobs(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(narrowed, 1);
  EXPECT_EQ(resolve_jobs(0), CPU_COUNT(&saved));
}
#endif

// The thread that ran each index, written by index like any result slot.
using ThreadLog = std::vector<std::thread::id>;

std::size_t distinct(const ThreadLog& log) {
  return std::set<std::thread::id>(log.begin(), log.end()).size();
}

TEST(ParallelFor, RunsEveryJobExactlyOnce) {
  for (const int jobs : {1, 2, 4}) {
    std::vector<int> hits(100, 0);
    ThreadLog ran_on(hits.size());
    parallel_for(hits.size(), jobs, [&](std::size_t i) {
      hits[i] += 1;
      ran_on[i] = std::this_thread::get_id();
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 100) << "jobs=" << jobs;
    EXPECT_LE(distinct(ran_on), static_cast<std::size_t>(jobs)) << "jobs=" << jobs;
    if (jobs == 1) {
      EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    }
  }
}

TEST(ParallelFor, RethrowsTheLowestIndexFailure) {
  // Index 5 fails last in time, after index 40 has already failed; the
  // caller must still see index 5's error, as a serial loop would.
  for (const int jobs : {1, 4, 0}) {
    std::vector<int> ran(64, 0);
    std::string what;
    try {
      parallel_for(ran.size(), jobs, [&](std::size_t i) {
        ran[i] = 1;
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("index 5 failed");
        }
        if (i == 40) throw std::runtime_error("index 40 failed");
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "index 5 failed") << "jobs=" << jobs;
    EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 64)
        << "jobs=" << jobs << ": every other index still runs";
  }
}

TEST(ParallelFor, ConcurrentCallersShareThePool) {
  // Outermost calls from several threads at once: each fans out over the
  // one shared pool and still runs each of its own indices exactly once.
  std::vector<std::vector<int>> hits(4, std::vector<int>(64, 0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < hits.size(); ++c) {
    callers.emplace_back([&hits, c] {
      for (int round = 0; round < 20; ++round) {
        parallel_for(hits[c].size(), 0, [&hits, c](std::size_t i) { hits[c][i] += 1; });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(std::count(h.begin(), h.end(), 20), 64);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // From a parallel_for task: the inner batch stays on the outer task's
  // thread, whatever its own jobs value asks for.
  ThreadLog outer(4);
  std::vector<ThreadLog> inner(4, ThreadLog(8));
  parallel_for(outer.size(), 4, [&](std::size_t i) {
    outer[i] = std::this_thread::get_id();
    parallel_for(8, 0, [&](std::size_t k) { inner[i][k] = std::this_thread::get_id(); });
  });
  for (std::size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(distinct(inner[i]), 1u);
    EXPECT_EQ(inner[i][0], outer[i]);
  }
}

// ---- grid expansion ------------------------------------------------------

TEST(Grid, ExpansionIsRowMajorAndStable) {
  const auto grid = twelve_cell_grid();
  EXPECT_EQ(cell_count(grid), 12u);
  const auto cells = expand(grid);
  ASSERT_EQ(cells.size(), 12u);
  // Kernels are the slowest axis, streams the fastest of the varied ones.
  EXPECT_EQ(cells[0].coords[0], (std::pair<std::string, std::string>{"kernel", "5.15"}));
  EXPECT_EQ(cells[0].coords[2].second, "1");
  EXPECT_EQ(cells[1].coords[2].second, "2");
  EXPECT_EQ(cells[4].coords[0].second, "6.5");
  EXPECT_EQ(cells[11].coords[0].second, "6.8");
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
  // Same grid, same order, same specs (keys are the full-content check).
  const auto again = expand(grid);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(spec_key(cells[i].spec), spec_key(again[i].spec));
  }
}

TEST(Grid, PerCellSeedsAreDistinctAndContentDerived) {
  const auto cells = expand(twelve_cell_grid());
  std::set<std::uint64_t> seeds;
  for (const auto& c : cells) seeds.insert(c.spec.base_seed);
  EXPECT_EQ(seeds.size(), cells.size());  // no two cells share a seed

  // Reordering axis *values* moves cells around but must not change the
  // seed a given configuration gets — seeds derive from content, not index.
  auto reordered = twelve_cell_grid();
  std::reverse(reordered.kernels.begin(), reordered.kernels.end());
  std::reverse(reordered.streams.begin(), reordered.streams.end());
  const auto shuffled = expand(reordered);
  for (const auto& a : cells) {
    const auto match = std::find_if(
        shuffled.begin(), shuffled.end(),
        [&](const Cell& b) { return b.coords == a.coords; });
    ASSERT_NE(match, shuffled.end());
    EXPECT_EQ(match->spec.base_seed, a.spec.base_seed);
    EXPECT_EQ(spec_key(match->spec), spec_key(a.spec));
  }
}

TEST(Grid, ValidatesAxesAndNames) {
  auto grid = twelve_cell_grid();
  grid.streams.clear();
  EXPECT_NE(validate(grid), "");
  EXPECT_THROW(expand(grid), std::invalid_argument);

  grid = twelve_cell_grid();
  grid.testbed = "wishful";
  EXPECT_NE(validate(grid), "");

  grid = twelve_cell_grid();
  grid.paths = {"WAN 9999ms"};
  EXPECT_NE(validate(grid), "");

  // Values expand() would name (ring0, optmemnan, pacenan) but not apply:
  // the cells would run the testbed default, unpaced.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  grid = twelve_cell_grid();
  grid.ring = {-1, 0};
  EXPECT_NE(validate(grid).find("ring"), std::string::npos) << validate(grid);
  grid = twelve_cell_grid();
  grid.optmem_max = {nan};
  EXPECT_NE(validate(grid).find("optmem_max"), std::string::npos) << validate(grid);
  grid = twelve_cell_grid();
  grid.pacing_gbps = {0.0, nan};
  EXPECT_NE(validate(grid).find("pacing_gbps"), std::string::npos) << validate(grid);

  EXPECT_EQ(validate(twelve_cell_grid()), "");
}

// ---- cache keys ----------------------------------------------------------

// The 64-cell grid of tests/golden/spec_keys.txt: every axis takes a
// non-default value somewhere, and so do the grid's constants.
GridSpec golden_grid() {
  GridSpec g;
  g.name = "golden";
  g.testbed = "amlight";
  g.kernels = {kern::KernelVersion::V5_15, kern::KernelVersion::V6_11};
  g.paths = {"", "WAN 104ms"};
  g.streams = {8};
  g.pacing_gbps = {0.0, 0.3};
  g.zerocopy = {false, true};
  g.optmem_max = {-1.0, 20480.0};
  g.big_tcp = {true};
  g.ring = {8192};
  g.scenarios = {scenario::Timeline{},
                 scenario::load_timeline(std::string(DTNSIM_SOURCE_DIR) +
                                         "/scenarios/link_flap.json")};
  g.skip_rx_copy = true;
  g.congestion = kern::CongestionAlgo::BbrV3;
  g.duration_sec = 2.5;
  g.repeats = 3;
  g.base_seed = 7;
  return g;
}

// Every line of a canonical text, keys strictly increasing.
void expect_sorted_lines(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  std::string_view prev;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line(text.data() + pos, nl - pos);
    const std::string_view key = line.substr(0, line.find('='));
    ASSERT_NE(key.size(), line.size()) << "no '=' in " << line;
    EXPECT_LT(prev, key) << "after " << prev;
    prev = key;
    pos = nl + 1;
  }
}

TEST(SpecKeys, MatchGolden) {
  std::string got;
  for (const auto& def : harness::experiment_registry()) {
    for (const auto& spec : def.specs()) {
      got += "registry " + spec_key_hex(spec) + " " + def.id + "/" + spec.name + "\n";
    }
  }
  const auto cells = expand(golden_grid());
  ASSERT_EQ(cells.size(), 64u);
  for (const auto& c : cells) {
    EXPECT_EQ(c.key, spec_key(c.spec)) << c.spec.name;
    got += strfmt("grid %03zu %s %s %s\n", c.index, key_hex(c.key).c_str(),
                  key_hex(c.spec.base_seed).c_str(), c.spec.name.c_str());
  }
  // A timeline past 999 events: its index widens to four digits, and
  // scenario.1000.* must still sort between scenario.100.* and scenario.101.*.
  auto long_spec = cells[1].spec;
  long_spec.scenario.events.clear();
  for (int i = 0; i < 1001; ++i) {
    scenario::Event e;
    e.at_sec = 0.5 + i * 0.01;
    e.kind = static_cast<scenario::EventKind>(i % scenario::kEventKindCount);
    e.value = i * 0.001;
    e.duration_sec = (i % 3) * 0.1;
    e.jitter_sec = (i % 7 == 0) ? 0.05 : 0.0;
    long_spec.scenario.events.push_back(e);
  }
  got += "events1001 " + spec_key_hex(long_spec) + "\n";
  expect_sorted_lines(canonical_text(long_spec));
  for (const auto& [label, index] : {std::pair{"plain", 62}, std::pair{"scenario", 63}}) {
    const std::string text = canonical_text(cells[static_cast<std::size_t>(index)].spec);
    expect_sorted_lines(text);
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t nl = text.find('\n', pos);
      got += std::string("text ") + label + " " + text.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }

  EXPECT_TRUE(golden::matches(got, "spec_keys.txt",
                              "a drifted key re-simulates cached cells under new seeds; "
                              "regenerate only for a change that means to move every key",
                              golden::comment));
}

// Walks a spec's fields() lists, the ones its cache key is written from,
// and changes one entry at a time: every keyed number, bool, string and
// enum must move the key, every unkeyed one must leave it alone.
class KnobWalker {
 public:
  explicit KnobWalker(harness::TestSpec& spec) : spec_(spec), base_key_(spec_key(spec)) {}

  template <class T, class Tag = wire::Plain>
  void operator()(const char* key, T&& value, Tag = {}) {
    visit(key, value, !std::is_same_v<Tag, wire::Unkeyed>);
  }

  int keyed = 0;
  int unkeyed = 0;

 private:
  template <class T>
  void visit(std::string_view key, T& value, bool in_key) {
    const std::size_t outer = path_.size();
    (path_ += key) += '.';
    if constexpr (wire::Struct<T>) {
      fields(*this, value);
    } else if constexpr (wire::is_vector<T>) {
      for (std::size_t i = 0; i < value.size(); ++i) visit(std::to_string(i), value[i], in_key);
    } else if constexpr (wire::is_named<T>) {
      using E = std::remove_reference_t<decltype(value.value)>;
      const E saved = value.value;
      value.value = saved == E{} ? static_cast<E>(1) : E{};
      check(in_key);
      value.value = saved;
    } else {
      const T saved = value;
      if constexpr (std::is_same_v<T, bool>) {
        value = !value;
      } else if constexpr (std::is_integral_v<T>) {
        value += 1;
      } else if constexpr (std::is_floating_point_v<T>) {
        value = value == 0 ? 1 : value * 3;
      } else if constexpr (std::is_same_v<T, std::string>) {
        value += "x";
      } else {
        static_assert(std::is_same_v<T, obs::TelemetryConfig>, "a knob this walk cannot change");
        value.enabled = !value.enabled;
      }
      check(in_key);
      value = saved;
    }
    path_.resize(outer);
  }

  void check(bool in_key) {
    ++(in_key ? keyed : unkeyed);
    if (in_key) {
      EXPECT_NE(spec_key(spec_), base_key_) << path_ << " is keyed but leaves the key alone";
    } else {
      EXPECT_EQ(spec_key(spec_), base_key_) << path_ << " is unkeyed but moves the key";
    }
  }

  harness::TestSpec& spec_;
  const std::uint64_t base_key_;
  std::string path_;
};

TEST(Cache, KeyChangesWithEveryKnob) {
  auto spec = expand(twelve_cell_grid())[0].spec;
  scenario::Event e;
  e.at_sec = 1.0;
  e.value = 0.5;
  e.duration_sec = 0.5;
  e.note = "walked";
  spec.scenario.events = {e};
  const auto base_key = spec_key(spec);

  KnobWalker walk(spec);
  fields(walk, spec);
  // 113 configuration knobs plus the event's five; the labels, model names,
  // kernel version numbers, --json, the telemetry and record switches and
  // the event's note are left out.
  EXPECT_EQ(walk.keyed, 113 + 5);
  EXPECT_EQ(walk.unkeyed, 18);
  EXPECT_EQ(spec_key(spec), base_key) << "the walk restores every knob";

  // The timeline's name is cosmetic too; its events stand for it in the key.
  spec.scenario.name = "renamed timeline";
  EXPECT_EQ(spec_key(spec), base_key);
}

TEST(Cache, StoreLoadRoundTrip) {
  const std::string dir = scratch_dir("roundtrip");
  ResultCache cache(dir);
  auto spec = expand(twelve_cell_grid())[0].spec;

  harness::TestResult miss;
  EXPECT_FALSE(cache.load(spec, &miss));

  const auto result = harness::run_test(spec);
  ASSERT_TRUE(cache.store(spec, result));
  harness::TestResult loaded;
  ASSERT_TRUE(cache.load(spec, &loaded));
  expect_same_result(result, loaded);
  EXPECT_EQ(loaded.name, spec.name);

  // A truncated entry (kill mid-write would leave the .tmp, but guard the
  // final file too) must read as a miss, not a crash.
  {
    std::ofstream truncate(cache.path_for(spec_key(spec)), std::ios::trunc);
    truncate << "{\"repeats\": 2, \"avg_gb";
  }
  EXPECT_FALSE(cache.load(spec, &loaded));
}

// ---- campaigns -----------------------------------------------------------

TEST(Cache, AFailedWriteLeavesNoEntry) {
  const std::string dir = scratch_dir("full");
  ResultCache cache(dir);
  const auto spec = expand(twelve_cell_grid())[0].spec;
  harness::TestResult result;
  result.name = spec.name;
  result.repeats = 1;
  result.avg_gbps = 1.0;
  // Every write to the temp file fails, as on a full disk. The entry is
  // never loaded: a read of /dev/full would not end.
  const std::string entry = cache.path_for(spec_key(spec));
  fs::create_symlink("/dev/full", entry + ".tmp");
  EXPECT_FALSE(cache.store(spec, result));
  EXPECT_FALSE(fs::exists(fs::symlink_status(entry)));
  EXPECT_FALSE(fs::exists(fs::symlink_status(entry + ".tmp")));
}

TEST(Campaign, ParallelOutputMatchesSerial) {
  const auto grid = twelve_cell_grid();
  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 4;

  const auto a = run_campaign(grid, serial);
  const auto b = run_campaign(grid, parallel);
  ASSERT_EQ(a.cells.size(), 12u);
  ASSERT_EQ(b.cells.size(), 12u);
  EXPECT_EQ(a.simulated, 12u);
  EXPECT_EQ(b.simulated, 12u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(b.cells[i].index, i);
    EXPECT_EQ(a.cells[i].key_hex, b.cells[i].key_hex);
    expect_same_result(a.cells[i].result, b.cells[i].result);
  }
}

TEST(Campaign, RunTestsBatchMatchesSerial) {
  // harness::run_tests rides the same pool; spec order must hold at any
  // job count.
  std::vector<harness::TestSpec> specs;
  for (const auto& c : expand(twelve_cell_grid())) specs.push_back(c.spec);
  const auto serial = harness::run_tests(specs, 1);
  const auto parallel = harness::run_tests(specs, 4);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].name, specs[i].name);
    EXPECT_EQ(parallel[i].name, specs[i].name);
    expect_same_result(serial[i], parallel[i]);
  }
}

TEST(Campaign, SecondRunIsAllCacheHits) {
  const std::string dir = scratch_dir("cachehits");
  const auto grid = twelve_cell_grid();
  CampaignOptions opts;
  opts.jobs = 4;
  opts.cache_dir = dir + "/cache";

  const auto first = run_campaign(grid, opts);
  EXPECT_EQ(first.simulated, 12u);
  EXPECT_EQ(first.cached, 0u);

  const auto second = run_campaign(grid, opts);
  EXPECT_EQ(second.simulated, 0u);
  EXPECT_EQ(second.cached, 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(second.cells[i].cached);
    expect_same_result(first.cells[i].result, second.cells[i].result);
  }
}

// perf alone arms telemetry, so the cache never stands in for the run
// that writes the cell's perf log.
TEST(Campaign, PerfAloneBypassesTheCache) {
  const std::string dir = scratch_dir("perf_uncached");
  GridSpec grid = twelve_cell_grid();
  grid.kernels = {kern::KernelVersion::V6_8};
  grid.paths = {"LAN"};
  grid.streams = {1};
  grid.telemetry.perf_enabled = true;
  CampaignOptions opts;
  opts.cache_dir = dir + "/cache";
  for (int run = 0; run < 2; ++run) {
    const auto report = run_campaign(grid, opts);
    EXPECT_EQ(report.simulated, 1u) << "run " << run;
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_FALSE(report.cells[0].result.perf_log.empty()) << "run " << run;
  }
}

TEST(Campaign, StreamsJsonlRowsAndCounts) {
  const std::string dir = scratch_dir("jsonl");
  const auto grid = twelve_cell_grid();
  CampaignOptions opts;
  opts.jobs = 4;
  opts.results_path = dir + "/rows.jsonl";

  const auto report = run_campaign(grid, opts);
  EXPECT_EQ(report.total, 12u);
  EXPECT_EQ(report.simulated, 12u);
  EXPECT_EQ(report.cached, 0u);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.jobs, std::min(4, resolve_jobs(0)));
  EXPECT_GT(report.wall_sec, 0.0);
  EXPECT_GT(report.worker_occupancy, 0.0);
  EXPECT_LE(report.worker_occupancy, 1.0);
  // A campaign writes its stream and no other file.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), fs::directory_iterator()), 1);

  // One well-formed row per cell, every index exactly once.
  std::ifstream in(opts.results_path);
  ASSERT_TRUE(in.is_open());
  std::set<int> indices;
  std::string line;
  while (std::getline(in, line)) {
    const auto row = Json::parse(line);
    ASSERT_TRUE(row.has_value()) << line;
    indices.insert(static_cast<int>(row->number_at("index", -1)));
    EXPECT_GT(row->number_at("avg_gbps", 0.0), 0.0);
    ASSERT_NE(row->find("coords"), nullptr);
  }
  EXPECT_EQ(indices.size(), 12u);
  EXPECT_EQ(*indices.begin(), 0);
  EXPECT_EQ(*indices.rbegin(), 11);
}

// Keeps the first `lines` lines of `path` and appends `tail` unterminated:
// what a kill between (or in the middle of) two line writes leaves behind.
void cut_after_kill(const std::string& path, std::size_t lines, const std::string& tail = "") {
  std::ifstream in(path);
  std::string kept, line;
  for (std::size_t n = 0; n < lines && std::getline(in, line); ++n) kept += line + '\n';
  in.close();
  std::ofstream(path, std::ios::trunc) << kept << tail;
}

// Every line of a JSONL file, parsed; a line that does not parse (a torn
// fragment, a stray blank line) is nullopt.
std::vector<std::optional<Json>> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::optional<Json>> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(Json::parse(line));
  return lines;
}

std::size_t unparsed_lines(const std::vector<std::optional<Json>>& lines) {
  return static_cast<std::size_t>(std::count(lines.begin(), lines.end(), std::nullopt));
}

// The distinct `index` values of the lines that parsed.
std::set<int> row_indices(const std::vector<std::optional<Json>>& lines) {
  std::set<int> indices;
  for (const auto& row : lines) {
    if (row) indices.insert(static_cast<int>(row->number_at("index", -1)));
  }
  return indices;
}

TEST(Campaign, ResumeNeverRerunsCompletedCells) {
  const std::string dir = scratch_dir("resume");
  const auto grid = twelve_cell_grid();
  CampaignOptions opts;
  opts.jobs = 1;
  opts.cache_dir = dir + "/cache";
  opts.results_path = dir + "/rows.jsonl";

  // "Kill" a serial campaign after 5 cells: its stream keeps cells 0-4, and
  // the cache is gone, so a resumed cell's result can only come from its row.
  const auto first = run_campaign(grid, opts);
  EXPECT_EQ(first.simulated, 12u);
  cut_after_kill(opts.results_path, 5);
  fs::remove_all(opts.cache_dir);

  // Resume: exactly the 7 remaining cells simulate; nothing re-runs.
  auto resumed = opts;
  resumed.jobs = 2;
  resumed.resume = true;
  const auto second = run_campaign(grid, resumed);
  EXPECT_EQ(second.simulated, 7u);
  EXPECT_EQ(second.resumed, 5u);
  for (std::size_t i = 0; i < second.cells.size(); ++i) {
    EXPECT_TRUE(second.cells[i].done);
    EXPECT_EQ(second.cells[i].resumed, i < 5) << i;
    EXPECT_EQ(second.cells[i].result.name, first.cells[i].result.name);
    expect_same_result(first.cells[i].result, second.cells[i].result);
  }

  // The appended JSONL now holds all 12 rows, each index exactly once, and
  // nothing else: appending to a whole file adds no line of its own.
  const auto rows = read_jsonl(opts.results_path);
  EXPECT_EQ(rows.size(), 12u);
  EXPECT_EQ(unparsed_lines(rows), 0u);
  EXPECT_EQ(row_indices(rows).size(), 12u);
  EXPECT_FALSE(fs::exists(opts.results_path + ".ckpt"));

  // Resuming against a *different* grid must refuse, not mix campaigns: its
  // cell 1 (2 streams -> 4) no longer has the key of row 1.
  auto other = grid;
  other.streams = {1, 4};
  try {
    run_campaign(other, resumed);
    ADD_FAILURE() << "resumed against another grid";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(opts.results_path), std::string::npos) << e.what();
  }
}

TEST(Campaign, ResumeAfterATornLastLineLosesNoRow) {
  const std::string dir = scratch_dir("resume_torn");
  const auto grid = twelve_cell_grid();
  CampaignOptions opts;
  opts.jobs = 4;
  opts.cache_dir = dir + "/cache";
  opts.results_path = dir + "/rows.jsonl";
  run_campaign(grid, opts);

  // A kill in the middle of a write: the stream ends in half a line.
  cut_after_kill(opts.results_path, 5, "{\"index\": 7, \"key\": \"12");

  auto resumed = opts;
  resumed.resume = true;
  const auto first = run_campaign(grid, resumed);
  EXPECT_EQ(first.resumed, 5u);
  EXPECT_EQ(first.cached, 7u);
  EXPECT_EQ(first.simulated, 0u);
  // The fragment stays on a line of its own (line 6), closed by the one
  // newline the resume wrote before its first row; every other line is whole.
  const auto rows = read_jsonl(opts.results_path);
  ASSERT_EQ(rows.size(), 5u + 1u + 7u);
  EXPECT_FALSE(rows[5].has_value());
  EXPECT_EQ(unparsed_lines(rows), 1u);
  EXPECT_EQ(row_indices(rows).size(), 12u);

  // Every appended row parsed too: nothing is served twice.
  const auto second = run_campaign(grid, resumed);
  EXPECT_EQ(second.resumed, 12u);
  EXPECT_EQ(second.simulated + second.cached, 0u);
}

// Ring 8192 is ESnet's default ring, so this grid's two cells share one key.
GridSpec duplicate_key_grid() {
  GridSpec g;
  g.testbed = "esnet";
  g.paths = {"LAN"};
  g.ring = {-1, 8192};
  g.duration_sec = 1;
  g.repeats = 1;
  return g;
}

TEST(Campaign, ResumeRunsACellThatSharesADoneCellsKey) {
  const std::string dir = scratch_dir("resume_dup");
  CampaignOptions opts;
  opts.results_path = dir + "/rows.jsonl";
  const auto first = run_campaign(duplicate_key_grid(), opts);
  ASSERT_EQ(first.total, 2u);
  ASSERT_EQ(first.cells[0].key_hex, first.cells[1].key_hex);

  // Killed after its first row: cell 1 has no row, so it runs again. Earlier
  // versions also kept a manifest of done cells at <out>.ckpt (their rows are
  // the same bytes), which marked both cells done by their one key; only the
  // rows count, and the manifest is left as it was.
  cut_after_kill(opts.results_path, 1);
  const std::string manifest = "{\"campaign\":\"campaign\",\"cells\":2,\"grid\":\"a3256b34154e08e9\","
                               "\"schema\":\"dtnsim.sweep.v3\"}\n"
                               "{\"index\":0,\"key\":\"" + first.cells[0].key_hex + "\"}\n"
                               "{\"index\":1,\"key\":\"" + first.cells[1].key_hex + "\"}\n";
  std::ofstream(opts.results_path + ".ckpt") << manifest;
  opts.resume = true;
  const auto second = run_campaign(duplicate_key_grid(), opts);
  EXPECT_EQ(second.resumed, 1u);
  EXPECT_EQ(second.simulated, 1u);
  EXPECT_TRUE(second.cells[0].resumed);
  EXPECT_FALSE(second.cells[1].resumed);
  const auto rows = read_jsonl(opts.results_path);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(row_indices(rows), (std::set<int>{0, 1}));
  EXPECT_EQ(read_file(opts.results_path + ".ckpt"), manifest);
}

TEST(Campaign, ExtendingTheSlowestAxisResumesWithTheNewCellsOnly) {
  // Appending kernels keeps every written row's index and key, so the
  // extended grid resumes and runs only the cells it added.
  const std::string dir = scratch_dir("resume_extend");
  CampaignOptions opts;
  opts.results_path = dir + "/rows.jsonl";
  GridSpec grid = duplicate_key_grid();
  run_campaign(grid, opts);

  grid.kernels.push_back(kern::KernelVersion::V6_5);
  opts.resume = true;
  const auto extended = run_campaign(grid, opts);
  EXPECT_EQ(extended.resumed, 2u);
  EXPECT_EQ(extended.simulated, 2u);
  EXPECT_EQ(row_indices(read_jsonl(opts.results_path)), (std::set<int>{0, 1, 2, 3}));
}

TEST(Campaign, ResumeRefusesARowThatIsNotACellResult) {
  const std::string dir = scratch_dir("resume_refuse");
  CampaignOptions opts;
  opts.results_path = dir + "/rows.jsonl";
  GridSpec grid = duplicate_key_grid();
  grid.ring = {-1};
  run_campaign(grid, opts);
  const auto row = Json::parse(read_file(opts.results_path).value_or(""));
  ASSERT_TRUE(row);
  const std::string key = row->string_at("key", "");

  // Each stream holds one row that this one-cell grid cannot resume from:
  // another cell's key at index 0, an index past the grid, an index that is
  // not whole, and the right cell whose columns do not read as a result. The
  // error names the stream, and the last one the cell's key too.
  Json other_key = *row, past_end = *row, fractional = *row, not_a_result = *row;
  other_key["key"] = std::string("0123456789abcdef");
  past_end["index"] = std::int64_t{1};
  fractional["index"] = 0.5;
  not_a_result["avg_gbps"] = std::string("fast");
  opts.resume = true;
  for (const Json* bad : {&other_key, &past_end, &fractional, &not_a_result}) {
    std::ofstream(opts.results_path, std::ios::trunc) << bad->dump() << '\n';
    try {
      run_campaign(grid, opts);
      ADD_FAILURE() << "resumed from " << bad->dump();
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(opts.results_path), std::string::npos) << what;
      if (bad == &not_a_result) {
        EXPECT_NE(what.find(key), std::string::npos) << what;
      }
    }
    EXPECT_EQ(read_file(opts.results_path), bad->dump() + "\n");  // nothing appended
  }
}

TEST(Campaign, ResumeWithoutAResultsStreamIsRejected) {
  // A campaign resumes from its rows, so without a stream there is nothing
  // to resume from; every cell would silently run again.
  GridSpec grid = twelve_cell_grid();
  grid.kernels = {kern::KernelVersion::V6_8};
  grid.paths = {"LAN"};
  grid.streams = {1};
  CampaignOptions opts;
  opts.resume = true;
  EXPECT_THROW(run_campaign(grid, opts), std::invalid_argument);

  std::string output;
  const auto cli = parse_sweep_cli({"--quick", "--kernels", "6.8", "--paths", "LAN",
                                    "--streams", "1", "--resume"});
  ASSERT_TRUE(cli.error.empty()) << cli.error;
  EXPECT_EQ(run_sweep_cli(cli, output), 2);
  EXPECT_NE(output.find("--out"), std::string::npos) << output;
}

TEST(Campaign, AnUnwritableRowStopsTheCampaign) {
  // The first row's write fails: dtnsim-sweep exits 2 naming the stream, no
  // row marks the cell done, so --resume would run it again, and no later
  // cell is simulated: the cache holds the first cell's entry alone. Nothing
  // but the stream is written beside it.
  const std::string dir = scratch_dir("full_rows");
  const std::string rows = dir + "/rows.jsonl";
  const std::string cache = dir + "/cache";
  fs::create_symlink("/dev/full", rows);
  std::string output;
  const auto cli =
      parse_sweep_cli({"--quick", "--kernels", "6.8", "--paths", "LAN", "--streams", "1,2,4,8",
                       "--jobs", "1", "--cache", cache, "--out", rows});
  ASSERT_TRUE(cli.error.empty()) << cli.error;
  ASSERT_EQ(expand(cli.grid).size(), 4u);
  EXPECT_EQ(run_sweep_cli(cli, output), 2);
  EXPECT_NE(output.find("cannot write " + rows), std::string::npos) << output;
  EXPECT_FALSE(fs::exists(rows + ".ckpt"));
  const auto entries = std::distance(fs::directory_iterator(cache), fs::directory_iterator());
  EXPECT_EQ(entries, 1);
}

// ---- sweep CLI -----------------------------------------------------------

TEST(SweepCli, ParsesFullGrid) {
  const auto cli = parse_sweep_cli(
      {"--name", "nightly", "--testbed", "amlight", "--kernels", "5.15,6.8",
       "--paths", "LAN,WAN 104ms", "--streams", "1,8", "--pacing", "0,50G",
       "--zerocopy", "0,1", "--optmem", "default,1M", "--big-tcp", "0,1",
       "--ring", "default,8192", "--congestion", "bbr3", "--skip-rx-copy",
       "--time", "30", "--repeats", "5", "--seed", "7", "--jobs", "0",
       "--cache", "/tmp/c", "--out", "/tmp/r.jsonl", "--resume"});
  ASSERT_TRUE(cli.error.empty()) << cli.error;
  EXPECT_EQ(cli.grid.name, "nightly");
  EXPECT_EQ(cli.grid.testbed, "amlight");
  EXPECT_EQ(cli.grid.kernels,
            (std::vector<kern::KernelVersion>{kern::KernelVersion::V5_15,
                                              kern::KernelVersion::V6_8}));
  EXPECT_EQ(cli.grid.paths, (std::vector<std::string>{"LAN", "WAN 104ms"}));
  EXPECT_EQ(cli.grid.streams, (std::vector<int>{1, 8}));
  EXPECT_EQ(cli.grid.pacing_gbps, (std::vector<double>{0.0, 50.0}));
  EXPECT_EQ(cli.grid.zerocopy, (std::vector<bool>{false, true}));
  EXPECT_EQ(cli.grid.optmem_max, (std::vector<double>{-1.0, 1e6}));
  EXPECT_EQ(cli.grid.big_tcp, (std::vector<bool>{false, true}));
  EXPECT_EQ(cli.grid.ring, (std::vector<int>{-1, 8192}));
  EXPECT_EQ(cli.grid.congestion, kern::CongestionAlgo::BbrV3);
  EXPECT_TRUE(cli.grid.skip_rx_copy);
  EXPECT_DOUBLE_EQ(cli.grid.duration_sec, 30.0);
  EXPECT_EQ(cli.grid.repeats, 5);
  EXPECT_EQ(cli.grid.base_seed, 7u);
  EXPECT_EQ(cli.run.jobs, 0);
  EXPECT_EQ(cli.run.cache_dir, "/tmp/c");
  EXPECT_EQ(cli.run.results_path, "/tmp/r.jsonl");
  EXPECT_TRUE(cli.run.resume);
  EXPECT_EQ(cell_count(cli.grid), 2u * 2 * 2 * 2 * 2 * 2 * 2 * 2);
}

TEST(SweepCli, RejectsGarbage) {
  EXPECT_FALSE(parse_sweep_cli({"--kernels", "4.19"}).error.empty());
  EXPECT_FALSE(parse_sweep_cli({"--streams", "1,banana"}).error.empty());
  EXPECT_FALSE(parse_sweep_cli({"--zerocopy", "0,2"}).error.empty());
  EXPECT_FALSE(parse_sweep_cli({"--jobs", "-1"}).error.empty());
  EXPECT_FALSE(parse_sweep_cli({"--pacing"}).error.empty());
  EXPECT_FALSE(parse_sweep_cli({"--frobnicate", "1"}).error.empty());
  EXPECT_TRUE(parse_sweep_cli({"--jobs", "0"}).error.empty());

  // Numbers are whole tokens in range; the error names the flag. These
  // once ran P1 cells, ring1215752191, seed 0, seed 2^64-1, 2 repeats, 5 s
  // cells, and failed only after expansion with "units: NaN SimTime".
  const std::pair<const char*, const char*> garbage[] = {
      {"--streams", "4294967297"}, {"--streams", "0"},     {"--ring", "99999999999"},
      {"--ring", "0"},             {"--seed", "abc"},      {"--seed", "-1"},
      {"--repeats", "2x"},         {"--repeats", "0"},     {"--time", "5abc"},
      {"--time", "nan"},           {"--time", "inf"},      {"--jobs", "4294967297"},
      {"--max-age-days", "nan"},
  };
  for (const auto& [flag, value] : garbage) {
    const std::string error = parse_sweep_cli({flag, value}).error;
    EXPECT_NE(error.find(flag), std::string::npos) << flag << " " << value << ": " << error;
    std::string output;
    EXPECT_EQ(run_sweep_cli(parse_sweep_cli({flag, value}), output), 2) << flag << " " << value;
  }
  EXPECT_EQ(parse_sweep_cli({"--seed", "18446744073709551615"}).grid.base_seed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_sweep_cli({"--ring", "default,1"}).grid.ring, (std::vector<int>{-1, 1}));
  EXPECT_DOUBLE_EQ(parse_sweep_cli({"--time", "0.5"}).grid.duration_sec, 0.5);
}

TEST(SweepCli, QuickPresetAndHelp) {
  const auto cli = parse_sweep_cli({"--quick"});
  ASSERT_TRUE(cli.error.empty());
  EXPECT_DOUBLE_EQ(cli.grid.duration_sec, 2.0);
  EXPECT_EQ(cli.grid.repeats, 2);

  std::string output;
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--help"}), output), 0);
  EXPECT_NE(output.find("--jobs"), std::string::npos);
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--bogus", "x"}), output), 2);
}

// --quick sets --time and --repeats where it appears, so flags apply left
// to right: a later --time or --repeats overrides the preset.
TEST(SweepCli, QuickAppliesWhereItAppears) {
  const auto later = parse_sweep_cli({"--quick", "--time", "1", "--repeats", "5"});
  ASSERT_TRUE(later.error.empty());
  EXPECT_DOUBLE_EQ(later.grid.duration_sec, 1.0);
  EXPECT_EQ(later.grid.repeats, 5);
  const auto earlier = parse_sweep_cli({"--time", "1", "--repeats", "5", "--quick"});
  ASSERT_TRUE(earlier.error.empty());
  EXPECT_DOUBLE_EQ(earlier.grid.duration_sec, 2.0);
  EXPECT_EQ(earlier.grid.repeats, 2);
}

TEST(SweepCli, EndToEndTinyCampaign) {
  const std::string dir = scratch_dir("cli_e2e");
  std::string output;
  const auto cli = parse_sweep_cli({"--quick", "--kernels", "6.8", "--paths", "LAN",
                                    "--streams", "1,2", "--jobs", "2", "--cache",
                                    dir + "/cache", "--out", dir + "/rows.jsonl"});
  ASSERT_TRUE(cli.error.empty()) << cli.error;
  EXPECT_EQ(run_sweep_cli(cli, output), 0);
  EXPECT_NE(output.find("summary: total=2 simulated=2 cached=0"), std::string::npos)
      << output;

  // Second invocation: all cache hits, zero simulation work.
  EXPECT_EQ(run_sweep_cli(cli, output), 0);
  EXPECT_NE(output.find("summary: total=2 simulated=0 cached=2"), std::string::npos)
      << output;
}

// ---- scenario axis ---------------------------------------------------------

scenario::Timeline tiny_loss_timeline() {
  scenario::Timeline tl;
  tl.name = "loss";
  scenario::Event e;
  e.at_sec = 1.0;
  e.kind = scenario::EventKind::LossBurst;
  e.value = 0.02;
  e.duration_sec = 0.5;
  tl.events.push_back(e);
  return tl;
}

TEST(SweepGrid, ScenarioAxisMultipliesCellsAndKeepsBaselineStable) {
  GridSpec g = twelve_cell_grid();
  const auto baseline = expand(g);
  g.scenarios = {scenario::Timeline{}, tiny_loss_timeline()};
  const auto cells = expand(g);
  ASSERT_EQ(cells.size(), baseline.size() * 2);

  // The scenario-less cells are byte-identical to the pre-axis expansion:
  // same names, same seeds, same cache keys. Adding the axis must never
  // invalidate existing caches.
  std::size_t plain = 0, scn = 0;
  for (const auto& c : cells) {
    ASSERT_FALSE(c.coords.empty());
    EXPECT_EQ(c.coords.back().first, "scenario");
    if (c.spec.scenario.empty()) {
      const auto& b = baseline[plain++];
      EXPECT_EQ(c.spec.name, b.spec.name);
      EXPECT_EQ(c.spec.base_seed, b.spec.base_seed);
      EXPECT_EQ(spec_key_hex(c.spec), spec_key_hex(b.spec));
      EXPECT_EQ(c.coords.back().second, "none");
    } else {
      ++scn;
      EXPECT_NE(c.spec.name.find("/scn-loss"), std::string::npos) << c.spec.name;
      EXPECT_EQ(c.coords.back().second, "loss");
    }
  }
  EXPECT_EQ(plain, baseline.size());
  EXPECT_EQ(scn, baseline.size());
}

TEST(SweepCache, ScenarioChangesTheKeyAndTheSeed) {
  GridSpec g = twelve_cell_grid();
  g.kernels = {kern::KernelVersion::V6_8};
  g.paths = {"LAN"};
  g.streams = {1};
  g.scenarios = {scenario::Timeline{}, tiny_loss_timeline()};
  const auto cells = expand(g);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_NE(spec_key_hex(cells[0].spec), spec_key_hex(cells[1].spec));
  EXPECT_NE(cells[0].spec.base_seed, cells[1].spec.base_seed);

  // No scenario -> no scenario fields in the canonical text at all.
  const auto plain_text = canonical_text(cells[0].spec);
  const auto scn_text = canonical_text(cells[1].spec);
  EXPECT_EQ(plain_text.find("scenario."), std::string::npos);
  EXPECT_NE(scn_text.find("scenario.000.kind=loss_burst"), std::string::npos)
      << scn_text;
}

TEST(SweepCli, ScenariosFlagParsesFilesAndNone) {
  const std::string dir = scratch_dir("scn_flag");
  const std::string tl_path = dir + "/loss.json";
  ASSERT_TRUE(scenario::write_timeline(tl_path, tiny_loss_timeline()));

  const auto cli = parse_sweep_cli({"--scenarios", "none," + tl_path});
  ASSERT_TRUE(cli.error.empty()) << cli.error;
  ASSERT_EQ(cli.grid.scenarios.size(), 2u);
  EXPECT_TRUE(cli.grid.scenarios[0].empty());
  EXPECT_EQ(cli.grid.scenarios[1].name, "loss");

  EXPECT_FALSE(parse_sweep_cli({"--scenarios", dir + "/absent.json"}).error.empty());
}

// ---- cache garbage collection ----------------------------------------------

// A directory with one live entry, one wrong-salt entry, one orphan temp
// file and one unrelated file — the GC fixture.
struct GcFixture {
  std::string dir;
  fs::path live, stale, tmp, unrelated;
};

GcFixture make_gc_fixture(const std::string& name) {
  GcFixture f;
  f.dir = scratch_dir(name);
  f.live = fs::path(f.dir) / "aaaaaaaaaaaaaaaa.json";
  f.stale = fs::path(f.dir) / "bbbbbbbbbbbbbbbb.json";
  f.tmp = fs::path(f.dir) / "cccccccccccccccc.json.tmp";
  f.unrelated = fs::path(f.dir) / "README";
  std::ofstream(f.live) << "{\"schema\": \"" << kCacheSalt << "\"}";
  std::ofstream(f.stale) << "{\"schema\": \"dtnsim.sweep.v0\"}";
  std::ofstream(f.tmp) << "{\"half\": tru";
  std::ofstream(f.unrelated) << "not a cache entry";
  return f;
}

TEST(SweepCacheGc, SaltMismatchEvictsStaleAndTempNeverUnrelated) {
  const auto f = make_gc_fixture("gc_salt");
  GcOptions opts;
  opts.salt_mismatch = true;
  const auto rep = ResultCache(f.dir).gc(opts);
  EXPECT_EQ(rep.scanned, 3u);  // live + stale + tmp; README is not scanned
  EXPECT_EQ(rep.evicted, 2u);
  EXPECT_EQ(rep.kept, 1u);
  EXPECT_GT(rep.reclaimed_bytes, 0u);
  EXPECT_TRUE(fs::exists(f.live));
  EXPECT_FALSE(fs::exists(f.stale));
  EXPECT_FALSE(fs::exists(f.tmp));
  EXPECT_TRUE(fs::exists(f.unrelated));
}

TEST(SweepCacheGc, MaxAgeEvictsOnlyOldEntries) {
  const auto f = make_gc_fixture("gc_age");
  // Age the live entry far past the cutoff; the stale one stays fresh (age
  // GC alone does not look at the salt).
  fs::last_write_time(f.live, fs::file_time_type::clock::now() -
                                  std::chrono::hours(24 * 30));
  GcOptions opts;
  opts.max_age_days = 7.0;
  const auto rep = ResultCache(f.dir).gc(opts);
  EXPECT_EQ(rep.evicted, 2u);  // old live entry + the always-eligible tmp
  EXPECT_FALSE(fs::exists(f.live));
  EXPECT_TRUE(fs::exists(f.stale));
  EXPECT_FALSE(fs::exists(f.tmp));
}

TEST(SweepCacheGc, DryRunReportsButDeletesNothing) {
  const auto f = make_gc_fixture("gc_dry");
  GcOptions opts;
  opts.salt_mismatch = true;
  opts.dry_run = true;
  const auto rep = ResultCache(f.dir).gc(opts);
  EXPECT_TRUE(rep.dry_run);
  EXPECT_EQ(rep.evicted, 2u);
  EXPECT_TRUE(fs::exists(f.stale));
  EXPECT_TRUE(fs::exists(f.tmp));
}

TEST(SweepCli, GcFlagsParseAndRequireCacheAndCriterion) {
  const auto cli = parse_sweep_cli({"--gc", "--cache", "/tmp/c",
                                    "--max-age-days", "7", "--dry-run"});
  ASSERT_TRUE(cli.error.empty()) << cli.error;
  EXPECT_TRUE(cli.gc);
  EXPECT_DOUBLE_EQ(cli.gc_opts.max_age_days, 7.0);
  EXPECT_TRUE(cli.gc_opts.dry_run);

  EXPECT_FALSE(parse_sweep_cli({"--gc", "--max-age-days", "potato"}).error.empty());

  std::string output;
  // --gc without --cache, and without any criterion: both usage errors.
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--gc", "--max-age-days", "7"}),
                          output), 2);
  const std::string dir = scratch_dir("gc_cli");
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--gc", "--cache", dir}), output), 2);
}

TEST(SweepCli, GcEndToEndThroughTheCli) {
  const auto f = make_gc_fixture("gc_cli_e2e");
  std::string output;
  const auto cli = parse_sweep_cli({"--gc", "--cache", f.dir, "--salt-mismatch"});
  ASSERT_TRUE(cli.error.empty()) << cli.error;
  EXPECT_EQ(run_sweep_cli(cli, output), 0);
  EXPECT_NE(output.find("evicted"), std::string::npos) << output;
  EXPECT_FALSE(fs::exists(f.stale));
  EXPECT_TRUE(fs::exists(f.live));
}

// An entry a build with the previous salt wrote: its file name hashes the v1
// salt line and its document names v1 as its schema. It is never served,
// neither under its own key nor copied under the current one, and GC by
// salt removes both copies.
// Each retired salt (v1: one-RTT rounds; v2: rounds of up to 8 RTTs) keys
// its entries apart from the current salt; an entry of that schema misses
// under either key, and the salt gc evicts both.
TEST(SweepCache, AVersionOneEntryIsAMissAndSaltGcEvictsIt) {
  for (const std::string old_salt : {"dtnsim.sweep.v1", "dtnsim.sweep.v2"}) {
    SCOPED_TRACE(old_salt);
    const std::string dir = scratch_dir("salt_" + old_salt.substr(old_salt.rfind('.') + 1));
    const ResultCache cache(dir);
    const harness::TestSpec spec = expand(twelve_cell_grid()).front().spec;
    harness::TestResult result;
    result.name = spec.name;
    result.repeats = 1;
    result.avg_gbps = 9.5;
    result.samples_gbps = {9.5};

    const std::uint64_t old_key =
        fnv1a64(canonical_text(spec), fnv1a64("\n", fnv1a64(old_salt)));
    ASSERT_NE(old_key, spec_key(spec));
    Json old = result_to_json(result);
    old["schema"] = Json(old_salt);
    for (const std::uint64_t key : {old_key, spec_key(spec)}) {
      std::ofstream(cache.path_for(key)) << old.dump();
    }
    harness::TestResult out;
    EXPECT_FALSE(cache.load(old_key, spec.name, &out));
    EXPECT_FALSE(cache.load(spec, &out));

    std::string output;
    EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--gc", "--cache", dir, "--salt-mismatch"}),
                            output),
              0);
    EXPECT_FALSE(fs::exists(cache.path_for(old_key))) << output;
    EXPECT_FALSE(fs::exists(cache.path_for(spec_key(spec)))) << output;

    ASSERT_TRUE(cache.store(spec, result));
    ASSERT_TRUE(cache.load(spec, &out));
    EXPECT_EQ(out.avg_gbps, 9.5);
  }
}

// ---- campaign report + plot (dtnsim::report integration) --------------------

// One synthetic JSONL row. Extras (perf cycles/byte, scenario dip/recovery)
// ride along only when asked — exactly the presence contract row_json uses.
std::string report_row(int index, const std::string& name, bool perf,
                       bool dip, double recovery_sec = 3.5) {
  std::string row = strfmt(
      "{\"index\": %d, \"name\": \"%s\", \"repeats\": 2, \"avg_gbps\": 9.5, "
      "\"stdev_gbps\": 0.25, \"min_gbps\": 9.25, \"max_gbps\": 9.75, "
      "\"avg_retransmits\": 4, \"snd_cpu_pct\": 55, \"rcv_cpu_pct\": 80",
      index, name.c_str());
  if (perf) row += ", \"tx_cyc_per_byte\": 1.23, \"rx_cyc_per_byte\": 2.46";
  if (dip) {
    row += strfmt(", \"baseline_gbps\": 9.5, \"dip_gbps\": 2.5, "
                  "\"recovery_sec\": %.1f, \"retained\": 0.26",
                  recovery_sec);
  }
  return row + "}\n";
}

TEST(SweepReport, ColumnsArePresenceDriven) {
  const std::string dir = scratch_dir("report_cols");
  const std::string plain = dir + "/plain.jsonl";
  std::ofstream(plain) << report_row(0, "a", false, false)
                       << report_row(1, "b", false, false);
  std::string output;
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--report", plain}), output), 0);
  // No row carries the extras -> the table must not grow the columns.
  EXPECT_EQ(output.find("tx cyc/B"), std::string::npos) << output;
  EXPECT_EQ(output.find("dip Gbps"), std::string::npos) << output;

  const std::string rich = dir + "/rich.jsonl";
  std::ofstream(rich) << report_row(0, "a", false, false)
                      << report_row(1, "b", true, true)
                      << report_row(2, "c", true, true, -1.0);
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--report", rich}), output), 0);
  EXPECT_NE(output.find("tx cyc/B"), std::string::npos) << output;
  EXPECT_NE(output.find("dip Gbps"), std::string::npos) << output;
  EXPECT_NE(output.find("1.23"), std::string::npos) << output;
  EXPECT_NE(output.find("2.50"), std::string::npos) << output;
  EXPECT_NE(output.find("never"), std::string::npos) << output;  // rec < 0
  // The extras-less row renders "-" fills, not zeros.
  EXPECT_NE(output.find("-"), std::string::npos) << output;
}

TEST(SweepReport, PlotOutWritesGnuplotNextToTheReport) {
  const std::string dir = scratch_dir("report_plot");
  const std::string rows = dir + "/rows.jsonl";
  std::ofstream(rows) << report_row(0, "a", true, true);
  const std::string base = dir + "/fig";
  std::string output;
  EXPECT_EQ(run_sweep_cli(
                parse_sweep_cli({"--report", rows, "--plot-out", base}), output),
            0);
  EXPECT_NE(output.find("render with: cd " + dir + " && gnuplot fig.gp"), std::string::npos)
      << output;
  EXPECT_TRUE(fs::exists(base + ".gp"));
  EXPECT_TRUE(fs::exists(base + ".dat"));

  // --plot-out without --report has no rows to plot: usage error.
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--plot-out", base}), output), 2);
  EXPECT_NE(output.find("--report"), std::string::npos);
}

TEST(SweepCli, TelemetryAndPerfFlagsReachTheGrid) {
  const auto tel = parse_sweep_cli({"--telemetry"});
  ASSERT_TRUE(tel.error.empty()) << tel.error;
  EXPECT_TRUE(tel.grid.telemetry.enabled);
  EXPECT_FALSE(tel.grid.telemetry.perf_enabled);
  const auto perf = parse_sweep_cli({"--perf"});
  ASSERT_TRUE(perf.error.empty()) << perf.error;
  EXPECT_TRUE(perf.grid.telemetry.perf_enabled);
  // --perf sets perf alone; harness::run_telemetry arms the telemetry it
  // rides on in every cell.
  EXPECT_FALSE(perf.grid.telemetry.enabled);
  harness::TestSpec cell;
  cell.telemetry = perf.grid.telemetry;
  EXPECT_TRUE(harness::run_telemetry(cell).enabled);
}

TEST(SweepReport, LiveCampaignRowsCarryPerfColumns) {
  const std::string dir = scratch_dir("report_live");
  const std::string rows = dir + "/rows.jsonl";
  std::string output;
  const auto run = parse_sweep_cli({"--quick", "--kernels", "6.8", "--paths",
                                    "LAN", "--streams", "1", "--perf", "--out",
                                    rows});
  ASSERT_TRUE(run.error.empty()) << run.error;
  ASSERT_EQ(run_sweep_cli(run, output), 0) << output;
  // The streamed row carries the cycles/byte extras and the report renders
  // them — the acceptance path, minus the 12-cell scale.
  EXPECT_EQ(run_sweep_cli(parse_sweep_cli({"--report", rows}), output), 0);
  EXPECT_NE(output.find("tx cyc/B"), std::string::npos) << output;
}

}  // namespace
}  // namespace dtnsim::sweep
