// Ward benchmark: shared types.
//
// A workload (WorkloadSpec) is turned into a Plan of seeded reads before
// anything is timed. A pass (run_pass) builds the system under test — a
// fleet::ReaderFleet with its shard pipelines, plus per-shard journals
// and a telemetry::EventBus where the workload has them — feeds the
// warm-up unthrottled, then offers the rest of the plan open loop on the
// stream-time schedule compressed by the speed factor kSpeed. The
// gates (gates.cpp) check every pass against the plan's ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "fleet/fleet.hpp"

namespace wardbench {

using tagbreathe::core::TagRead;

/// User id the item (non-monitored) tags carry; the ingest roster
/// refuses it as UnknownUser.
inline constexpr std::uint64_t kItemUserId = 0xFFFFFFFFull;

/// Stream seconds offered per wall second, in every workload.
inline constexpr double kSpeed = 4.0;
/// Reader report / fleet pump cadence [stream s].
inline constexpr double kPumpPeriodS = 0.25;
/// A roaming user moves one reader on every this many stream seconds...
inline constexpr double kRoamPeriodS = 12.0;
/// ...and its first this many port-1 reads after a move also reach the
/// previous reader (overlap copies the fleet must suppress).
inline constexpr std::size_t kRoamOverlapReads = 3;

struct WorkloadSpec {
  std::string name;
  std::size_t beds = 0;
  std::size_t readers = 0;
  std::size_t shards = 1;
  /// Shard threads of the timed pass; the determinism replay runs the
  /// shards serially and must log the same events.
  std::size_t shard_threads = 0;
  bool journal = false;
  /// An EventBus with three subscribers (all events, one ward coalesced,
  /// alarms only) carries the merged stream.
  bool bus = false;
  /// Each tag simulated by its own reader (the lone-tag read rate).
  bool per_tag_readers = false;
  std::size_t item_tags_per_bed = 0;
  /// Each bed is also heard by the next reader's antenna (port 2).
  bool overlap = false;
  std::size_t roamers = 0;
  /// Reader 0 is dark for this share of the steady part (0 = none).
  double blackout_from_frac = 0.0;
  double blackout_len_s = 0.0;
};

/// The three workloads, by name; throws std::invalid_argument.
WorkloadSpec workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// One read handed to one fleet reader.
struct Delivery {
  TagRead read;
  std::uint32_t reader = 0;
  /// False for a further copy of a read already delivered to another
  /// reader (an overlap duplicate the fleet must suppress).
  bool distinct = true;
};

struct Plan {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  double warmup_s = 10.0;
  /// Stream time fed unthrottled before the paced part: the warm-up plus
  /// the rest of the first analysis window, so every paced tick analyses
  /// a full 30 s window.
  double fill_s = 30.0;
  /// Last update tick; every delivery has time < end_s.
  double end_s = 0.0;
  /// Paced update ticks after the fill.
  std::size_t steady_ticks = 0;
  /// Time-sorted (stable: reader order breaks ties deterministically).
  std::vector<Delivery> deliveries;
  /// Index of the first delivery of each pump slice: slice k (pump at
  /// t_k = k * pump_period) holds deliveries [slice_begin[k-1],
  /// slice_begin[k]) with time in [t_{k-1}, t_k).
  std::vector<std::size_t> slice_begin;
  /// Monitored users, ascending; truth_bpm is parallel to it.
  std::vector<std::uint64_t> roster;
  std::vector<double> truth_bpm;
  /// Per roster user: sorted times of its distinct reads.
  std::vector<std::vector<double>> read_times;
  std::size_t item_reads = 0;
  std::size_t duplicate_deliveries = 0;
  int blackout_reader = -1;
  double blackout_from_s = 0.0;
  double blackout_to_s = 0.0;

  std::size_t pumps() const noexcept { return slice_begin.size() - 1; }
  double pump_time(std::size_t k) const noexcept {
    return static_cast<double>(k) * kPumpPeriodS;
  }
  std::size_t user_index(std::uint64_t user) const;
};

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed,
               std::size_t steady_ticks);

/// What one pass measured and saw.
struct PassOptions {
  bool paced = true;
  bool traced = false;
  std::size_t shard_threads = 0;
  /// Journal root for this pass (empty when the workload has none).
  std::string journal_dir;
  /// Self-test corruption: skip offering this delivery index.
  std::int64_t drop_delivery = -1;
  /// Construct and feed the warm-up only (a set-up sample).
  bool warmup_only = false;
};

struct EventRecord {
  tagbreathe::core::PipelineEvent event;
  double emit_wall_s = 0.0;  // fleet callback or bus delivery
};

struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t detail = 0;
};

struct StageTimes {
  std::size_t users = 0;
  double antenna_us = 0, preprocess_us = 0, fusion_us = 0;
  double extract_us = 0, band_search_us = 0, estimate_us = 0;
  /// analysis_stage_seconds{stage} per user from a bound pipeline
  /// re-analysing the same windows.
  double hist_preprocess_us = 0, hist_fuse_us = 0, hist_extract_us = 0,
         hist_estimate_us = 0;
  double reads_per_user_window = 0;
  std::size_t rate_mismatches = 0;
};

struct PassResult {
  std::vector<EventRecord> events;
  std::uint64_t event_hash = 0;
  double setup_s = 0.0;
  /// Update ticks after warm-up the pass covered (fill + paced).
  std::size_t op_ticks = 0;
  std::size_t ops_attempted = 0;
  std::size_t ops_failed = 0;
  /// Operations whose RateUpdate arrived, and those of them emitted after
  /// the next tick was due.
  std::size_t updates_present = 0;
  std::size_t ops_late = 0;
  /// (user, tick) pairs left out of the operations: the pipeline held a
  /// steadily breathing user in its apnea state. gate_false_apnea caps
  /// them; update_coverage counts them as missing.
  std::size_t false_apnea_ticks = 0;
  std::vector<double> read_to_event_ms;
  std::vector<double> cpu_per_period_s;
  std::vector<double> lag_ms;
  std::vector<double> tick_ms, pump_ms, tick_cpu_ms, pump_cpu_ms;
  std::vector<double> shard_skew;
  double offer_s = 0.0;
  std::size_t offered = 0;
  /// Deliveries the pass's slices hold (the whole plan unless cut short).
  std::size_t planned = 0;
  double publish_s = 0.0;
  std::size_t published = 0;
  std::size_t bus_queue_max = 0;
  double heap_peak_bytes = 0.0;
  std::size_t tracked_users = 0;
  double footprint_bytes_per_user = 0.0;
  std::size_t analyses_run = 0;
  /// Offered per roster user and tag (index tag_id-1), monitored only.
  std::vector<std::vector<std::size_t>> offered_per_tag;
  std::size_t offered_items = 0;
  tagbreathe::fleet::FleetCounters fleet;
  std::vector<tagbreathe::core::IngestQueueCounters> queues;
  std::size_t shed = 0;
  /// Traced passes, steady pumps: wall time from a sampled read's offer
  /// to the start of the pump that drains its queue [ms].
  std::vector<double> queue_delay_ms;
  // Bus (per subscription: published, delivered, dropped, coalesced, queued).
  struct Sub {
    std::uint64_t published = 0, delivered = 0, dropped = 0, coalesced = 0,
                  queued = 0;
  };
  std::vector<Sub> subs;
  std::uint64_t bus_delivered = 0;
  // Journal.
  std::vector<std::size_t> journal_scanned_per_user;
  std::size_t journal_scanned = 0;
  std::size_t journal_foreign_shard = 0;
  double journal_append_ns = 0.0, journal_bytes_per_read = 0.0;
  std::size_t journal_commits = 0;
  StageTimes stages;
  std::vector<Span> spans;
  std::vector<std::string> span_names;
};

PassResult run_pass(const Plan& plan, const PassOptions& options);

double wall_now() noexcept;

/// In-memory span recorder for traced passes: name, start, end and the
/// enclosing span. A null output vector turns every call into a no-op
/// check (untraced passes).
class SpanRecorder {
 public:
  SpanRecorder(std::vector<Span>* out, std::vector<std::string>* names)
      : out_(out), names_(names) {}
  bool on() const noexcept { return out_ != nullptr; }
  std::uint16_t name(const std::string& n);
  std::int32_t begin(std::uint16_t name, std::uint64_t detail = 0);
  /// Closes the span; returns its duration [s].
  double end(std::int32_t id);

 private:
  std::vector<Span>* out_;
  std::vector<std::string>* names_;
  std::vector<std::int32_t> stack_;
};

/// Re-runs the public analysis stage functions on the exported windows
/// (ending at the last update tick `t1`) of up to `max_users` users.
StageTimes rerun_stages(const tagbreathe::fleet::ReaderFleet& fleet,
                        const Plan& plan, double t1, std::size_t max_users,
                        SpanRecorder& spans);

// --- gates (gates.cpp) -----------------------------------------------------
/// Paper's reported Eq. 8 accuracy floor (Figs. 12-17: above 90%).
inline constexpr double kEq8Floor = 0.90;
/// Generator validity bound on gen.lag_ms_p90.
inline constexpr double kLagBoundMs = 5.0;
/// Most user-ticks after warm-up that a false apnea state may hold
/// without failing the run, as a share of them all. Every subject
/// breathes steadily, so the right count is 0; the program's known
/// defect (CHANGES.md, FOUND) held at most 0.3% in the reference runs.
inline constexpr double kFalseApneaMaxShare = 0.01;
/// Traced passes time the offer of every this-many-th read.
inline constexpr std::size_t kDelaySampleEvery = 8;

void gate_offered(const Plan& plan, const PassResult& r,
                  std::vector<std::string>& v);
void gate_lag(double lag_p90_ms, std::vector<std::string>& v);
void gate_conservation(const PassResult& r, std::vector<std::string>& v);
void gate_bus(const PassResult& r, std::vector<std::string>& v);
void gate_journal(const Plan& plan, const PassResult& r,
                  std::vector<std::string>& v);
/// Per (steady tick, roster user): 1 while the pipeline holds the user
/// in its apnea state — from an ApneaAlert until the user's next
/// RateUpdate. The pipeline emits no RateUpdate in that state by design,
/// so those ticks expect none. Every subject in these workloads breathes
/// steadily, so each such tick is a false alarm; run_pass counts them.
std::vector<unsigned char> apnea_ticks(const Plan& plan,
                                       std::size_t steady_ticks,
                                       const std::vector<EventRecord>& events);
/// Fails the run when false apnea states kept more than
/// kFalseApneaMaxShare of the user-ticks out of the operations.
void gate_false_apnea(const PassResult& r, std::vector<std::string>& v);
void gate_event_stream(const Plan& plan, std::size_t steady_ticks,
                       const std::vector<EventRecord>& events,
                       std::vector<std::string>& v);
/// Mean Eq. 8 accuracy over reliable steady RateUpdates (and count).
double eq8_accuracy(const Plan& plan, const std::vector<EventRecord>& events,
                    std::size_t* reliable);
void gate_eq8(double accuracy, std::size_t reliable,
              std::vector<std::string>& v);
void gate_hash(std::uint64_t a, std::uint64_t b, const std::string& what,
               std::vector<std::string>& v);
std::uint64_t event_log_hash(const std::vector<EventRecord>& events);

// --- heap accounting (heap_counter.cpp) --------------------------------------
std::int64_t heap_live_bytes() noexcept;
std::int64_t heap_peak_bytes() noexcept;
void heap_reset_peak() noexcept;

// --- small helpers -----------------------------------------------------------
double cpu_now() noexcept;
double percentile(std::vector<double> values, double q);

/// Runs each workload for a few ticks with every gate armed, then shows
/// that each gate fires on a corrupted input. Returns the exit code.
int run_selftest(const std::string& out_dir);

}  // namespace wardbench
