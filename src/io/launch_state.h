// Crash-safe persistence for the fault-tolerant launch pipeline.
//
// The paper's deployment runs SmartLaunch against nightly inventory feeds;
// a push window that dies mid-run must pick up where it left off instead of
// re-planning launches whose changes are already on air. This module makes
// the pipeline's recovery state durable as a directory of small CSVs
// (matching the nightly-feed deployment model — plain files an operator can
// inspect and an external tool can produce).
//
// The recovery state is a set of STREAMS, five of them per EMS shard:
//
//   journal      per-carrier apply-journal offsets (settings landed)
//   deferred     the breaker's deferred launch queue, in order
//   quarantine   rolled-back carriers and their rollback counts
//   breaker      circuit-breaker dynamic state
//   ems          EMS simulator dynamic state (fault-stream positions,
//                push counter, unlocked/repaired carriers)
//
// plus two global ones:
//
//   applied      slot writes applied to the evolving network state since
//                the run started (delta vs. the initial assignment)
//   relearn      the same delta frozen at the last engine re-learn (the
//                state the current engine's models were trained on)
//
// The two slot streams grow with the whole run, so the store keeps their
// committed images itself and save() takes only the slots written since
// the last commit (see LaunchState::applied_slots): their part of a
// checkpoint costs O(slots written), and O(image) work happens only at a
// re-learn, a compaction, a re-baseline or a load().
//
// and progress.csv, caller-defined key/value counters whose tmp+rename is
// the checkpoint's single atomic commit point (doubles stored as hexfloats
// so a resumed run's counters are bit-identical).
//
// Every stream lives in an append-only log (`journal.log3.csv`,
// `ems.2.log7.csv`, ...) of CSV op records; each save() appends only the
// ops that transform the previously committed state into the new one,
// fsyncs the appended logs, and then commits by rewriting progress.csv
// (tmp + fsync + rename + directory fsync). progress.csv carries one
// reserved `__log.<stream>` row per log naming the generation and the
// SEALED byte length — bytes past the seal are an uncommitted tail from a
// crashed append, and recovery truncates them away before replaying the
// ops. When a log's appended tail outgrows its last full snapshot
// (Options::compact_factor) the stream is compacted: a fresh snapshot log
// at the next generation, tmp+fsync+renamed, with the old generation
// removed only after the commit that references the new one.
//
// Every write routes through io::FaultFs, so crash-injection tests can kill
// the store at any named operation; the crash-point catalog below is the
// matrix those tests iterate. load() validates everything it reads and
// reports malformed state with file + line context ("journal.log1.csv line
// 3: ...") — a corrupt checkpoint must fail loudly, never resume partially.
// The one repaired defect is a log tail past its seal; progress.csv itself
// is only ever replaced by a rename, so a torn final line there is refused.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "netsim/topology.h"
#include "util/retry.h"

namespace auric::io {

/// Everything the launch pipeline needs to survive a crash, as plain data
/// (no smartlaunch types: the io layer sits below the pipeline).
struct LaunchState {
  /// EMS simulator dynamic state; mirrors smartlaunch::EmsSimulator::Snapshot.
  struct EmsState {
    std::uint64_t pushes_executed = 0;
    std::uint64_t lock_cycles = 0;
    std::uint64_t fault_stream = 0;
    std::uint64_t flap_stream = 0;
    std::uint64_t burst_stream = 0;
    std::vector<netsim::CarrierId> unlocked;
    std::vector<netsim::CarrierId> repaired;
  };

  /// One configuration-slot write relative to the initial assignment (the
  /// replay's delta encoding of its evolving network state).
  struct SlotWrite {
    bool pairwise = false;
    std::uint32_t param_pos = 0;  ///< position in the singular/pairwise column list
    std::uint64_t entity = 0;     ///< carrier id (singular) or edge index (pairwise)
    std::int32_t value = 0;       ///< ValueIndex written (never kUnset)
  };

  /// The per-EMS-shard slice of the recovery state: one apply journal, one
  /// deferred queue, one quarantine, one breaker and one EMS simulator per
  /// shard (launches, retries and rollbacks are shard-local by design).
  struct ShardState {
    std::vector<std::pair<netsim::CarrierId, std::uint64_t>> journal;
    std::vector<netsim::CarrierId> deferred;
    std::vector<std::pair<netsim::CarrierId, int>> quarantine;
    util::CircuitBreaker::Snapshot breaker;
    EmsState ems;
  };

  /// Keyed streams (journal, quarantine, applied/relearn) must be sorted by
  /// key: the store persists them as ordered op logs and a resumed store
  /// diffs against the replayed (sorted) image. The pipeline already sorts
  /// its snapshots; save() rejects unsorted or duplicate-keyed input.
  std::vector<std::pair<netsim::CarrierId, std::uint64_t>> journal;
  std::vector<netsim::CarrierId> deferred;
  std::vector<std::pair<netsim::CarrierId, int>> quarantine;  ///< carrier, rollbacks
  util::CircuitBreaker::Snapshot breaker;
  EmsState ems;
  /// Sharded-pipeline layout: when non-empty, the five blocks above are
  /// persisted per shard (shards[k] -> journal.k.log*.csv, ...) and the
  /// flat fields are ignored; when empty, the flat single-shard streams are
  /// used. load() restores whichever layout the checkpoint committed.
  std::vector<ShardState> shards;
  /// The slot streams, as writes over the store's images: save() takes the
  /// slots written since the store's last commit or load() (sorted by
  /// (pairwise, param_pos, entity), unique), and load() returns each whole
  /// image as writes over an empty one — so saving a loaded state into a
  /// fresh store reproduces the checkpoint. Slots are never erased.
  std::vector<SlotWrite> applied_slots;          ///< delta vs. initial assignment
  std::vector<SlotWrite> relearn_applied_slots;  ///< delta at last engine re-learn
  /// Caller-defined counters, persisted in order. Keys must be unique; keys
  /// starting with "__" are reserved for the store's own markers (layout,
  /// journal seals) and save() rejects states that use them.
  std::vector<std::pair<std::string, std::string>> progress;

  const std::string* find_progress(const std::string& key) const;
};

class LaunchStateStore {
 public:
  struct Options {
    /// fsync appended logs / temp files before, and the directory after,
    /// the progress.csv commit rename. Off only for benches that price the
    /// serialization path without the (noisy) device-flush cost.
    bool fsync = true;
    /// Compaction trigger: a stream is re-snapshotted once its appended
    /// tail exceeds max(compact_min_bytes, compact_factor x snapshot size).
    std::uint64_t compact_min_bytes = 4096;
    double compact_factor = 4.0;
  };

  /// What the last load() had to repair; zero everywhere on a clean open.
  struct LoadStats {
    std::size_t torn_tails_truncated = 0;  ///< journal logs cut back to their seal
    std::size_t records_replayed = 0;      ///< journal op records applied
  };

  explicit LaunchStateStore(std::string dir);
  LaunchStateStore(std::string dir, Options options);

  const std::string& dir() const { return dir_; }
  const Options& options() const { return options_; }

  /// True once a checkpoint has been committed (progress.csv exists).
  bool exists() const;

  /// Persists `state`: appends per-stream deltas and commits them via the
  /// progress.csv rename. A crash at any point leaves the previous committed
  /// checkpoint loadable. Throws std::runtime_error on I/O failure (the
  /// store stays usable: the next save() repairs any uncommitted tails).
  ///
  /// The store keeps the last committed state in memory to diff against,
  /// the slot images included; it changes only when a save commits, so a
  /// caller whose save() threw sends the same slot writes again. A fresh
  /// store starts from empty images and re-baselines an existing directory
  /// with full snapshot logs on its first save() unless load() primed it.
  void save(const LaunchState& state) const;

  /// Records that the engine re-learned from the applied image this store
  /// last committed: the next save() that commits makes that image the
  /// relearn image (before its relearn_applied_slots apply). O(1) here; the
  /// commit that consumes it costs O(image).
  void mark_relearn() const;

  /// Loads and validates a checkpoint, repairing (truncating) any journal
  /// tail left unsealed by a crashed append. Malformed state — including a
  /// progress.csv without journal seals — throws std::invalid_argument
  /// naming the file (and the 1-based line where there is one).
  LaunchState load() const;

  /// Repairs performed by the most recent load() on this store.
  const LoadStats& load_stats() const { return load_stats_; }

  /// Removes the checkpoint files (leaves unrelated files alone).
  void clear() const;

  /// Every named FaultFs crash point the store's write paths visit — the
  /// universe the crash-matrix tests iterate. Documented in DESIGN.md §14.
  static const std::vector<std::string>& crash_point_catalog();

 private:
  /// Per-stream journal bookkeeping, keyed by stream id ("journal",
  /// "ems.2", "applied", ...): committed generation, sealed byte length,
  /// and the size of the last full snapshot (the compaction yardstick).
  struct StreamLog {
    std::uint64_t gen = 0;
    std::uint64_t sealed_bytes = 0;
    std::uint64_t snapshot_bytes = 0;
  };

  /// Committed slot image: (pairwise, param_pos, entity) -> value.
  using SlotImage = std::map<std::tuple<bool, std::uint32_t, std::uint64_t>, std::int32_t>;

  /// One slot image's part of a save (defined in launch_state.cpp).
  struct SlotUpdate;

  /// Append (or snapshot) every stream and commit `state`; true when the
  /// save renamed new snapshot files into place (old generations then need
  /// cleanup).
  bool save_journal(const LaunchState& state, const SlotUpdate& applied,
                    const SlotUpdate& relearn) const;
  void cleanup_unreferenced() const;

  std::string dir_;
  Options options_;
  // Commit cache: the last committed state, the slot images and the
  // per-stream log positions. Mutable because save()/load() are logically
  // const to callers (the checkpoint directory is the real state); guarded
  // by the pipeline's single-writer discipline, not a lock.
  mutable bool primed_ = false;   ///< logs_ and last_ describe the last commit
  mutable LaunchState last_;      ///< slot fields unused: the images below
  mutable SlotImage applied_;
  mutable SlotImage relearn_;
  mutable bool relearn_pending_ = false;
  /// The directory may hold files no commit of this store accounts for (a
  /// fresh store, a load(), a save that threw): the next commit scans it.
  mutable bool scan_pending_ = true;
  mutable std::map<std::string, StreamLog> logs_;
  mutable LoadStats load_stats_;
};

}  // namespace auric::io
