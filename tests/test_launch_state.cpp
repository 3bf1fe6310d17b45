#include "io/launch_state.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace auric::io {
namespace {

std::string temp_dir(const char* tag) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("auric_launch_state_" + std::string(tag));
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

LaunchState sample_state() {
  LaunchState state;
  state.journal = {{3, 17}, {9, 2}};
  state.deferred = {4, 1, 8};
  state.quarantine = {{2, 1}, {7, 2}};
  state.breaker.state = util::CircuitBreaker::State::kOpen;
  state.breaker.consecutive_failures = 3;
  state.breaker.cooldown_remaining = 2;
  state.breaker.trips = 1;
  state.breaker.refusals = 4;
  state.ems.pushes_executed = 123;
  state.ems.lock_cycles = 7;
  state.ems.fault_stream = 0xDEADBEEFULL;
  state.ems.flap_stream = 42;
  state.ems.burst_stream = 0xFFFFFFFFFFFFFFFFULL;
  state.ems.unlocked = {1, 5};
  state.ems.repaired = {6};
  state.applied_slots = {{false, 2, 11, 5}, {true, 0, 190, 3}};
  state.relearn_applied_slots = {{false, 2, 11, 4}};
  state.progress = {{"day", "12"}, {"kpi", "0x1.8p-1"}};
  return state;
}

TEST(LaunchStateStore, ExistsOnlyAfterCommit) {
  const LaunchStateStore store(temp_dir("exists"));
  EXPECT_FALSE(store.exists());
  store.save(sample_state());
  EXPECT_TRUE(store.exists());
  store.clear();
  EXPECT_FALSE(store.exists());
}

TEST(LaunchStateStore, RoundTripsEveryField) {
  const LaunchStateStore store(temp_dir("roundtrip"));
  const LaunchState saved = sample_state();
  store.save(saved);
  const LaunchState loaded = store.load();

  EXPECT_EQ(loaded.journal, saved.journal);
  EXPECT_EQ(loaded.deferred, saved.deferred);
  EXPECT_EQ(loaded.quarantine, saved.quarantine);
  EXPECT_EQ(loaded.breaker.state, saved.breaker.state);
  EXPECT_EQ(loaded.breaker.consecutive_failures, saved.breaker.consecutive_failures);
  EXPECT_EQ(loaded.breaker.cooldown_remaining, saved.breaker.cooldown_remaining);
  EXPECT_EQ(loaded.breaker.trips, saved.breaker.trips);
  EXPECT_EQ(loaded.breaker.refusals, saved.breaker.refusals);
  EXPECT_EQ(loaded.ems.pushes_executed, saved.ems.pushes_executed);
  EXPECT_EQ(loaded.ems.fault_stream, saved.ems.fault_stream);
  EXPECT_EQ(loaded.ems.flap_stream, saved.ems.flap_stream);
  EXPECT_EQ(loaded.ems.burst_stream, saved.ems.burst_stream);
  EXPECT_EQ(loaded.ems.unlocked, saved.ems.unlocked);
  EXPECT_EQ(loaded.ems.repaired, saved.ems.repaired);
  ASSERT_EQ(loaded.applied_slots.size(), saved.applied_slots.size());
  for (std::size_t i = 0; i < saved.applied_slots.size(); ++i) {
    EXPECT_EQ(loaded.applied_slots[i].pairwise, saved.applied_slots[i].pairwise);
    EXPECT_EQ(loaded.applied_slots[i].param_pos, saved.applied_slots[i].param_pos);
    EXPECT_EQ(loaded.applied_slots[i].entity, saved.applied_slots[i].entity);
    EXPECT_EQ(loaded.applied_slots[i].value, saved.applied_slots[i].value);
  }
  EXPECT_EQ(loaded.relearn_applied_slots.size(), saved.relearn_applied_slots.size());
  EXPECT_EQ(loaded.progress, saved.progress);
  ASSERT_NE(loaded.find_progress("kpi"), nullptr);
  EXPECT_EQ(*loaded.find_progress("kpi"), "0x1.8p-1");
  EXPECT_EQ(loaded.find_progress("missing"), nullptr);
}

TEST(LaunchStateStore, SaveOverwritesPreviousCheckpoint) {
  const LaunchStateStore store(temp_dir("overwrite"));
  store.save(sample_state());
  LaunchState second;  // mostly empty
  second.progress = {{"day", "13"}};
  store.save(second);
  const LaunchState loaded = store.load();
  EXPECT_TRUE(loaded.journal.empty());
  EXPECT_TRUE(loaded.deferred.empty());
  ASSERT_NE(loaded.find_progress("day"), nullptr);
  EXPECT_EQ(*loaded.find_progress("day"), "13");
}

void corrupt(const std::string& dir, const char* file, const std::string& content) {
  std::ofstream out(std::filesystem::path(dir) / file);
  out << content;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Replaces 1-based line `line` of `path`, its newline included, with
/// `record` of the same byte length: the seal still covers the bytes, so
/// load() must reject them by validation, not truncate them as a torn tail.
void overwrite_record(const std::filesystem::path& path, std::size_t line,
                      const std::string& record) {
  std::string text = read_text(path);
  std::size_t begin = 0;
  for (std::size_t n = 1; n < line; ++n) begin = text.find('\n', begin) + 1;
  const std::size_t end = text.find('\n', begin) + 1;
  ASSERT_EQ(end - begin, record.size()) << "'" << text.substr(begin, end - begin) << "'";
  text.replace(begin, record.size(), record);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

TEST(LaunchStateStore, CorruptSealedRecordNamesFileAndLine) {
  // The first-generation logs of sample_state(), one record per row broken
  // in place. A row whose record keeps its newline must be reported at
  // `<log> line N`; the last row drops the final newline instead.
  struct Case {
    const char* log;
    std::size_t line;
    const char* record;
    const char* want;
  };
  const Case cases[] = {
      {"journal.log1.csv", 1, "op,a,b,c,d,x\n", "bad journal header"},
      {"journal.log1.csv", 2, "x,3,17,,,\n", "unknown op 'x'"},
      {"journal.log1.csv", 2, "u,3,1,9,,\n", "unexpected operand '9'"},
      {"journal.log1.csv", 2, "u,3,1,,,,\n", "expected 6 fields, got 7"},
      {"journal.log1.csv", 2, "e,333,,,,\n", "erase of absent key 333"},
      {"journal.log1.csv", 3, "u,9,2,,,,", "not record-aligned"},
      {"deferred.log1.csv", 2, "pop,99,,,,\n", "value 99 outside [1, 0]"},
      {"quarantine.log1.csv", 2, "u,-,1,,,\n", "'-' is not an integer"},
      {"breaker.log1.csv", 2, "set,wedg,3,2,1,4\n", "unknown circuit-breaker state 'wedg'"},
      {"ems.log1.csv", 2, "set,warp_factor_xyz,123,,,\n", "unknown key 'warp_factor_xyz'"},
      {"ems.log1.csv", 7, "add,sideways,1,,,\n", "unknown list 'sideways'"},
      {"applied.log1.csv", 2, "u,2,2,11,5,\n", "value 2 outside [0, 1]"},
      {"relearn.log1.csv", 2, "e,0,2,123,,\n", "erase of absent slot key"},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(std::string(c.log) + " line " + std::to_string(c.line) + ": " + c.want);
    const std::string dir = temp_dir(("corrupt_" + std::to_string(i)).c_str());
    LaunchStateStore(dir).save(sample_state());
    overwrite_record(std::filesystem::path(dir) / c.log, c.line, c.record);
    const std::string msg = thrown_message([&] { (void)LaunchStateStore(dir).load(); });
    EXPECT_NE(msg.find(c.want), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.log), std::string::npos) << msg;
    if (std::string_view(c.record).ends_with('\n')) {
      const std::string at = std::string(c.log) + " line " + std::to_string(c.line);
      EXPECT_NE(msg.find(at), std::string::npos) << msg;
    }
  }
}

TEST(LaunchStateStore, DuplicateProgressKeyRejected) {
  const LaunchStateStore store(temp_dir("dup_progress"));
  store.save(sample_state());
  corrupt(store.dir(), "progress.csv", "key,value\nday,1\nday,2\n");
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find("progress.csv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate progress key"), std::string::npos) << msg;
}

TEST(LaunchStateStore, MissingFileFailsLoudly) {
  const LaunchStateStore store(temp_dir("missing_file"));
  store.save(sample_state());
  std::filesystem::remove(std::filesystem::path(store.dir()) / "ems.log1.csv");
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ems.log1.csv"), std::string::npos) << msg;
  EXPECT_THROW((void)store.load(), std::runtime_error);
}

TEST(LaunchStateStore, ProgressWithoutJournalSealsFailsToLoad) {
  // A hand-made (or pre-journal) checkpoint: caller counters, no seals.
  const LaunchStateStore store(temp_dir("sealless_progress"));
  store.save(sample_state());
  corrupt(store.dir(), "progress.csv", "key,value\nday,12\nkpi,0x1.8p-1\n");
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find("progress.csv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected 7 journal seals, found 0"), std::string::npos) << msg;
  EXPECT_THROW((void)store.load(), std::invalid_argument);
}

TEST(LaunchStateStore, TornProgressFailsToLoad) {
  // progress.csv is only ever replaced by a rename, so a final row that
  // lost its newline is corruption: resuming without it would silently
  // drop a counter.
  const LaunchStateStore store(temp_dir("torn_progress"));
  store.save(sample_state());
  const std::filesystem::path progress = std::filesystem::path(store.dir()) / "progress.csv";
  std::filesystem::resize_file(progress, std::filesystem::file_size(progress) - 3);
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find("progress.csv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no trailing newline"), std::string::npos) << msg;
  EXPECT_THROW((void)store.load(), std::invalid_argument);
}

/// Stream logs of `id` ("journal", "ems.1", ...): `<id>.log<gen>.csv`.
std::vector<std::filesystem::path> log_files(const std::string& dir, const std::string& id) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(id + ".log", 0) == 0 && name.find(".csv") != std::string::npos) {
      out.push_back(entry.path());
    }
  }
  return out;
}

LaunchState sharded_state() {
  LaunchState state;
  // Shard 0 and shard 1 carry deliberately different content so a swapped
  // or merged load would be caught.
  LaunchState::ShardState shard0;
  shard0.journal = {{3, 17}};
  shard0.deferred = {4};
  shard0.quarantine = {{2, 1}};
  shard0.breaker.state = util::CircuitBreaker::State::kOpen;
  shard0.breaker.trips = 1;
  shard0.ems.pushes_executed = 10;
  shard0.ems.fault_stream = 0xAAAA;
  shard0.ems.unlocked = {1};
  LaunchState::ShardState shard1;
  shard1.journal = {{9, 2}, {11, 5}};
  shard1.deferred = {};
  shard1.quarantine = {};
  shard1.breaker.state = util::CircuitBreaker::State::kClosed;
  shard1.ems.pushes_executed = 99;
  shard1.ems.fault_stream = 0xBBBB;
  shard1.ems.repaired = {6};
  state.shards = {shard0, shard1};
  state.applied_slots = {{false, 2, 11, 5}};
  state.progress = {{"day", "3"}, {"shards_note", "two"}};
  return state;
}

TEST(LaunchStateStore, ShardedStateRoundTripsPerShard) {
  const LaunchStateStore store(temp_dir("sharded_roundtrip"));
  const LaunchState saved = sharded_state();
  store.save(saved);
  const LaunchState loaded = store.load();

  ASSERT_EQ(loaded.shards.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(loaded.shards[k].journal, saved.shards[k].journal) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].deferred, saved.shards[k].deferred) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].quarantine, saved.shards[k].quarantine) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].breaker.state, saved.shards[k].breaker.state) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].breaker.trips, saved.shards[k].breaker.trips) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].ems.pushes_executed, saved.shards[k].ems.pushes_executed);
    EXPECT_EQ(loaded.shards[k].ems.fault_stream, saved.shards[k].ems.fault_stream);
    EXPECT_EQ(loaded.shards[k].ems.unlocked, saved.shards[k].ems.unlocked);
    EXPECT_EQ(loaded.shards[k].ems.repaired, saved.shards[k].ems.repaired);
  }
  // The reserved layout marker is store-internal, never caller progress.
  EXPECT_EQ(loaded.progress, saved.progress);
  EXPECT_EQ(loaded.find_progress("__shards"), nullptr);
}

TEST(LaunchStateStore, ShardedLayoutUsesSuffixedFiles) {
  const LaunchStateStore store(temp_dir("sharded_files"));
  store.save(sharded_state());
  const std::filesystem::path dir(store.dir());
  for (const std::string base : {"journal", "deferred", "quarantine", "breaker", "ems"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / (base + ".0.log1.csv"))) << base;
    EXPECT_TRUE(std::filesystem::exists(dir / (base + ".1.log1.csv"))) << base;
    EXPECT_TRUE(log_files(store.dir(), base).empty())
        << base << " flat log must not be written in sharded mode";
  }
}

TEST(LaunchStateStore, SingleShardLayoutHasNoMarker) {
  const LaunchStateStore store(temp_dir("flat_marker"));
  store.save(sample_state());  // shards empty -> flat single-shard streams
  std::ifstream progress(std::filesystem::path(store.dir()) / "progress.csv");
  std::string contents((std::istreambuf_iterator<char>(progress)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents.find("__shards"), std::string::npos);
  const LaunchState loaded = store.load();
  EXPECT_TRUE(loaded.shards.empty());
}

TEST(LaunchStateStore, ReservedProgressKeyRejected) {
  const LaunchStateStore store(temp_dir("reserved_key"));
  LaunchState state = sample_state();
  state.progress.emplace_back("__shards", "4");
  EXPECT_THROW(store.save(state), std::invalid_argument);
}

TEST(LaunchStateStore, MissingShardFileFailsLoudly) {
  const LaunchStateStore store(temp_dir("missing_shard_file"));
  store.save(sharded_state());
  std::filesystem::remove(std::filesystem::path(store.dir()) / "ems.1.log1.csv");
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find("ems.1.log1.csv"), std::string::npos) << msg;
  EXPECT_THROW((void)store.load(), std::runtime_error);
}

// --- Journal-layout behavior ----------------------------------------------

std::uint64_t checkpoint_bytes_total() {
  return obs::MetricsRegistry::global().counter("auric_checkpoint_bytes_total").value();
}

TEST(LaunchStateStore, JournalLayoutAppendsDeltasInsideCommit) {
  const LaunchStateStore store(temp_dir("journal_appends"));
  LaunchState state = sample_state();
  store.save(state);
  ASSERT_EQ(log_files(store.dir(), "journal").size(), 1u);
  const auto log_path = log_files(store.dir(), "journal")[0];
  const auto snapshot_size = std::filesystem::file_size(log_path);

  state.journal.push_back({12, 1});
  state.progress = {{"day", "13"}, {"kpi", "0x1.8p-1"}};
  store.save(state);
  // Same generation file, grown by one op record — not rewritten.
  ASSERT_TRUE(std::filesystem::exists(log_path));
  EXPECT_GT(std::filesystem::file_size(log_path), snapshot_size);

  // The seal in progress.csv is part of the commit.
  std::ifstream progress(std::filesystem::path(store.dir()) / "progress.csv");
  const std::string contents((std::istreambuf_iterator<char>(progress)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("__log.journal"), std::string::npos);

  const LaunchState loaded = store.load();
  EXPECT_EQ(loaded.journal, state.journal);
  EXPECT_EQ(loaded.progress, state.progress);
}

TEST(LaunchStateStore, JournalCheckpointBytesAreFiveTimesBelowFullSnapshot) {
  // A grown state image (the "400K carriers after a month" shape, scaled
  // down) with a one-launch delta: the checkpoint must write at least 5x
  // fewer bytes than the image's first save, a full snapshot of every
  // stream — what rewriting every file would cost each time.
  LaunchState grown;
  for (netsim::CarrierId c = 0; c < 2000; ++c) grown.journal.push_back({c, 64});
  for (netsim::CarrierId c = 0; c < 500; ++c) grown.quarantine.push_back({c * 3, 1});
  for (std::uint32_t p = 0; p < 1500; ++p) grown.applied_slots.push_back({false, p, 77, 3});
  grown.ems.pushes_executed = 123456;
  grown.progress = {{"day", "29"}, {"kpi", "0x1.8p-1"}};

  LaunchState next = grown;
  next.journal.push_back({5000, 7});
  next.applied_slots.push_back({true, 0, 9, 2});
  next.ems.pushes_executed += 3;
  next.progress = {{"day", "30"}, {"kpi", "0x1.9p-1"}};

  const LaunchStateStore store(temp_dir("bytes_journal"));
  const std::uint64_t before = checkpoint_bytes_total();
  store.save(grown);
  const std::uint64_t snapshot_bytes = checkpoint_bytes_total() - before;
  store.save(next);
  const std::uint64_t delta_bytes = checkpoint_bytes_total() - before - snapshot_bytes;

  ASSERT_GT(delta_bytes, 0u);
  EXPECT_GE(snapshot_bytes, 5 * delta_bytes)
      << "delta wrote " << delta_bytes << " bytes, full snapshot " << snapshot_bytes;
  EXPECT_EQ(store.load().journal, next.journal);
}

TEST(LaunchStateStore, CompactionAdvancesGenerationAndDropsOldLog) {
  LaunchStateStore::Options options;
  options.compact_min_bytes = 1;  // any appended tail beyond one byte compacts
  options.compact_factor = 0.0;
  const LaunchStateStore store(temp_dir("compaction"), options);
  LaunchState state = sample_state();
  store.save(state);
  const auto gen1 = log_files(store.dir(), "journal");
  ASSERT_EQ(gen1.size(), 1u);

  state.journal.push_back({21, 9});
  store.save(state);
  const auto gen2 = log_files(store.dir(), "journal");
  ASSERT_EQ(gen2.size(), 1u);
  EXPECT_NE(gen1[0], gen2[0]) << "compaction must move to a fresh generation";
  EXPECT_FALSE(std::filesystem::exists(gen1[0])) << "old generation must be cleaned up";

  const LaunchState loaded = store.load();
  EXPECT_EQ(loaded.journal, state.journal);
}

TEST(LaunchStateStore, TornJournalTailTruncatedOnLoad) {
  const LaunchStateStore store(temp_dir("torn_tail"));
  LaunchState state = sample_state();
  store.save(state);

  // A crash after the append but before the commit leaves bytes past the
  // seal; recovery must cut them off and replay only the committed region.
  const auto logs = log_files(store.dir(), "journal");
  ASSERT_EQ(logs.size(), 1u);
  const auto sealed_size = std::filesystem::file_size(logs[0]);
  {
    std::ofstream out(logs[0], std::ios::app);
    out << "u,999,1\nu,10";  // one whole uncommitted record + a torn one
  }

  const LaunchStateStore reopened(store.dir());
  const LaunchState loaded = reopened.load();
  EXPECT_EQ(loaded.journal, state.journal);
  EXPECT_EQ(reopened.load_stats().torn_tails_truncated, 1u);
  EXPECT_EQ(std::filesystem::file_size(logs[0]), sealed_size) << "tail must be cut off on disk";
}

TEST(LaunchStateStore, FreshStoreOverExistingJournalRebaselines) {
  const std::string dir = temp_dir("rebaseline");
  LaunchState state = sample_state();
  {
    const LaunchStateStore first(dir);
    first.save(state);
    state.journal.push_back({40, 2});
    first.save(state);
  }
  // A restarted process saves without loading: the store must not trust any
  // stale in-memory image, and the result must still round-trip.
  const LaunchStateStore second(dir);
  state.journal.push_back({41, 3});
  second.save(state);
  EXPECT_EQ(second.load().journal, state.journal);
}

TEST(LaunchStateStore, UnsortedJournalRejectedInJournalMode) {
  const LaunchStateStore store(temp_dir("unsorted"));
  LaunchState state = sample_state();
  state.journal = {{9, 2}, {3, 17}};
  EXPECT_THROW(store.save(state), std::invalid_argument);
}

// --- Slot images: save() takes writes, the store keeps the images ---------

std::uint64_t append_bytes_total() {
  return obs::MetricsRegistry::global().counter("auric_checkpoint_append_bytes_total").value();
}

/// `count` singular slots of column `param_pos`, entities 0..count-1.
std::vector<LaunchState::SlotWrite> slot_range(std::uint32_t param_pos, std::uint64_t count,
                                               std::int32_t value) {
  std::vector<LaunchState::SlotWrite> out;
  for (std::uint64_t e = 0; e < count; ++e) out.push_back({false, param_pos, e, value});
  return out;
}

std::vector<std::tuple<bool, std::uint32_t, std::uint64_t, std::int32_t>> as_tuples(
    const std::vector<LaunchState::SlotWrite>& slots) {
  std::vector<std::tuple<bool, std::uint32_t, std::uint64_t, std::int32_t>> out;
  for (const auto& w : slots) out.emplace_back(w.pairwise, w.param_pos, w.entity, w.value);
  return out;
}

TEST(LaunchStateStore, SlotWritesAccumulateIntoTheImage) {
  const LaunchStateStore store(temp_dir("slot_accumulate"));
  LaunchState state;
  state.applied_slots = {{false, 1, 4, 2}, {true, 0, 7, 3}};
  store.save(state);
  state.applied_slots = {{false, 1, 4, 9}, {false, 2, 0, 1}};  // overwrite + new slot
  store.save(state);
  state.applied_slots.clear();
  store.save(state);  // nothing written: the image stays

  const LaunchStateStore reopened(store.dir());
  EXPECT_EQ(as_tuples(reopened.load().applied_slots),
            as_tuples({{false, 1, 4, 9}, {false, 2, 0, 1}, {true, 0, 7, 3}}));
}

TEST(LaunchStateStore, MarkRelearnFreezesTheCommittedAppliedImage) {
  const LaunchStateStore store(temp_dir("slot_relearn"));
  LaunchState state;
  state.applied_slots = {{false, 0, 1, 5}, {false, 0, 2, 6}};
  store.save(state);
  // The engine re-learns from the committed image; the next save carries
  // writes made after that re-learn, which the relearn image must not see.
  store.mark_relearn();
  state.applied_slots = {{false, 0, 2, 8}, {false, 0, 3, 7}};
  store.save(state);

  const LaunchStateStore reopened(store.dir());
  const LaunchState loaded = reopened.load();
  EXPECT_EQ(as_tuples(loaded.relearn_applied_slots),
            as_tuples({{false, 0, 1, 5}, {false, 0, 2, 6}}));
  EXPECT_EQ(as_tuples(loaded.applied_slots),
            as_tuples({{false, 0, 1, 5}, {false, 0, 2, 8}, {false, 0, 3, 7}}));
}

TEST(LaunchStateStore, LoadedStateSavedIntoAFreshStoreReproducesTheImages) {
  const LaunchStateStore source(temp_dir("slot_copy_src"));
  LaunchState state = sample_state();
  source.save(state);
  source.mark_relearn();
  state.applied_slots = {{false, 3, 1, 2}};
  source.save(state);
  const LaunchState loaded = source.load();

  const LaunchStateStore sink(temp_dir("slot_copy_dst"));
  sink.save(loaded);
  const LaunchState copied = LaunchStateStore(sink.dir()).load();
  EXPECT_EQ(as_tuples(copied.applied_slots), as_tuples(loaded.applied_slots));
  EXPECT_EQ(as_tuples(copied.relearn_applied_slots), as_tuples(loaded.relearn_applied_slots));
}

TEST(LaunchStateStore, RewritingAnUnchangedSlotAppendsNothing) {
  const LaunchStateStore store(temp_dir("slot_unchanged"));
  LaunchState state;
  state.applied_slots = slot_range(0, 50, 4);
  store.save(state);
  const auto applied_log = log_files(store.dir(), "applied");
  ASSERT_EQ(applied_log.size(), 1u);
  const auto size_before = std::filesystem::file_size(applied_log[0]);
  const std::uint64_t appended_before = append_bytes_total();

  state.applied_slots = slot_range(0, 10, 4);  // same values again
  state.progress = {{"day", "2"}};
  store.save(state);
  EXPECT_EQ(append_bytes_total(), appended_before);
  EXPECT_EQ(std::filesystem::file_size(applied_log[0]), size_before);
}

TEST(LaunchStateStore, CompactionSnapshotReloadsToTheSameImage) {
  LaunchStateStore::Options compacting;
  compacting.compact_min_bytes = 1;  // every changed stream re-snapshots
  compacting.compact_factor = 0.0;
  const LaunchStateStore store(temp_dir("slot_compact"), compacting);
  const LaunchStateStore plain(temp_dir("slot_compact_plain"));
  LaunchState state;
  state.applied_slots = slot_range(1, 40, 3);
  state.relearn_applied_slots = slot_range(1, 20, 3);
  for (const LaunchStateStore* s : {&store, &plain}) s->save(state);
  const auto gen1 = log_files(store.dir(), "applied");

  for (const LaunchStateStore* s : {&store, &plain}) s->mark_relearn();
  state.applied_slots = {{false, 1, 5, 9}, {false, 1, 99, 2}, {true, 0, 3, 1}};
  state.relearn_applied_slots.clear();
  for (const LaunchStateStore* s : {&store, &plain}) s->save(state);
  const auto gen2 = log_files(store.dir(), "applied");
  ASSERT_EQ(gen2.size(), 1u);
  EXPECT_NE(gen1[0], gen2[0]) << "the applied stream must have compacted";

  const LaunchState compacted = LaunchStateStore(store.dir()).load();
  const LaunchState appended = LaunchStateStore(plain.dir()).load();
  EXPECT_EQ(as_tuples(compacted.applied_slots), as_tuples(appended.applied_slots));
  EXPECT_EQ(as_tuples(compacted.relearn_applied_slots), as_tuples(appended.relearn_applied_slots));
  EXPECT_EQ(appended.applied_slots.size(), 42u);
  EXPECT_EQ(appended.relearn_applied_slots.size(), 40u);
}

TEST(LaunchStateStore, BytesAppendedPerSaveDoNotDependOnImageSize) {
  // Ten slots written into a 2K-slot and a 25K-slot image append exactly
  // the same op records: a save is priced by what it wrote.
  std::vector<std::uint64_t> appended;
  for (const std::uint64_t image : {2000u, 25000u}) {
    const LaunchStateStore store(temp_dir(("slot_flat_" + std::to_string(image)).c_str()));
    LaunchState state;
    state.applied_slots = slot_range(0, image, 1);
    state.relearn_applied_slots = state.applied_slots;
    store.save(state);
    state.applied_slots = slot_range(0, 10, 2);
    state.relearn_applied_slots.clear();
    const std::uint64_t before = append_bytes_total();
    store.save(state);
    appended.push_back(append_bytes_total() - before);
  }
  EXPECT_GT(appended[0], 0u);
  EXPECT_EQ(appended[0], appended[1]);
}

TEST(LaunchStateStore, UnsortedSlotWritesRejected) {
  const LaunchStateStore store(temp_dir("slot_unsorted"));
  LaunchState state;
  state.applied_slots = {{false, 0, 9, 1}, {false, 0, 3, 1}};
  EXPECT_THROW(store.save(state), std::invalid_argument);
}

TEST(LaunchStateStore, CrashPointCatalogIsStable) {
  // DESIGN.md §14 lists the same points in the same order.
  const std::vector<std::string> expected = {
      "checkpoint.snapshot_write", "checkpoint.snapshot_fsync", "checkpoint.snapshot_rename",
      "checkpoint.append",         "checkpoint.append_fsync",   "checkpoint.predir_fsync",
      "checkpoint.progress_write", "checkpoint.progress_fsync", "checkpoint.progress_rename",
      "checkpoint.dir_fsync",      "checkpoint.cleanup",        "recover.truncate",
  };
  EXPECT_EQ(LaunchStateStore::crash_point_catalog(), expected);
}

TEST(LaunchStateStore, ClearRemovesShardFiles) {
  const LaunchStateStore store(temp_dir("sharded_clear"));
  store.save(sharded_state());
  std::ofstream(std::filesystem::path(store.dir()) / "notes.txt") << "operator notes\n";
  store.clear();
  EXPECT_FALSE(store.exists());
  for (const std::string base : {"journal", "deferred", "quarantine", "breaker", "ems"}) {
    EXPECT_TRUE(log_files(store.dir(), base + ".0").empty()) << base;
    EXPECT_TRUE(log_files(store.dir(), base + ".1").empty()) << base;
  }
  EXPECT_TRUE(log_files(store.dir(), "applied").empty());
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(store.dir()) / "notes.txt"))
      << "clear() must leave unrelated files alone";
}

}  // namespace
}  // namespace auric::io
