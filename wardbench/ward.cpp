// The system under test and one pass over a plan.
//
// The loop is single-threaded on the benchmark side: at each pump time
// t_k the reader reports of slice k (reads with time in [t_{k-1}, t_k))
// are offered, then the fleet is pumped at t_k. Paced passes sleep until
// the wall due time of t_k first; the generator never waits for the
// program, so a pump that overruns its slot shows as gen lag. Offering
// whole slices keeps every pump's input — and so the event log —
// independent of timing.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "core/journal.hpp"
#include "obs/observability.hpp"
#include "telemetry/event_bus.hpp"
#include "ward.hpp"

namespace wardbench {

namespace tb = tagbreathe;
namespace fs = std::filesystem;

double wall_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::uint16_t SpanRecorder::name(const std::string& n) {
  for (std::size_t i = 0; i < names_->size(); ++i)
    if ((*names_)[i] == n) return static_cast<std::uint16_t>(i);
  names_->push_back(n);
  return static_cast<std::uint16_t>(names_->size() - 1);
}

std::int32_t SpanRecorder::begin(std::uint16_t name, std::uint64_t detail) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = wall_now();
  s.detail = detail;
  out_->push_back(s);
  stack_.push_back(static_cast<std::int32_t>(out_->size() - 1));
  return stack_.back();
}

double SpanRecorder::end(std::int32_t id) {
  Span& s = (*out_)[static_cast<std::size_t>(id)];
  s.end_s = wall_now();
  stack_.pop_back();
  return s.end_s - s.start_s;
}

namespace {

void sleep_until_wall(double t) {
  const auto tp = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t)));
  std::this_thread::sleep_until(tp);
}

/// Fleet + optional bus: the system under test.
struct Sut {
  std::unique_ptr<tb::obs::Observability> hub;
  std::unique_ptr<tb::telemetry::EventBus> bus;
  std::vector<std::uint64_t> subs;
  std::unique_ptr<tb::fleet::ReaderFleet> fleet;
  std::vector<tb::telemetry::TelemetryEvent> drained;
};

std::unique_ptr<Sut> make_sut(const Plan& plan, const PassOptions& opt,
                              std::vector<EventRecord>& events, SpanRecorder& spans,
                              PassResult& r, std::uint16_t publish_name) {
  const WorkloadSpec& spec = plan.spec;
  auto sut = std::make_unique<Sut>();
  tb::fleet::FleetConfig fc;
  fc.n_readers = spec.readers;
  fc.n_shards = spec.shards;
  fc.shard_threads = opt.shard_threads;
  fc.ingest.monitored_users = plan.roster;
  // Hold the whole roster: no LRU eviction churn in any workload.
  fc.ingest.max_users = plan.roster.size();
  if (spec.journal) fc.durability_directory = opt.journal_dir;
  if (opt.traced) sut->hub = std::make_unique<tb::obs::Observability>();
  if (spec.bus) {
    sut->bus = std::make_unique<tb::telemetry::EventBus>(
        tb::telemetry::EventBusConfig{},
        [](std::uint64_t user) { return static_cast<std::uint32_t>(user % 4); });
    using tb::telemetry::FilterKind;
    using tb::telemetry::OverflowPolicy;
    const std::pair<tb::telemetry::FilterSpec, OverflowPolicy> kinds[] = {
        {{FilterKind::All, 0}, OverflowPolicy::DropOldest},
        {{FilterKind::Ward, 1}, OverflowPolicy::CoalescePerUser},
        {{FilterKind::AlarmOnly, 0}, OverflowPolicy::DropOldest},
    };
    for (const auto& [filter, policy] : kinds)
      sut->subs.push_back(sut->bus->subscribe(filter, policy));
    if (sut->hub) sut->bus->bind_observability(*sut->hub);
  }
  Sut* raw = sut.get();
  sut->fleet = std::make_unique<tb::fleet::ReaderFleet>(
      fc, [raw, &events, &spans, &r, publish_name](
              const tb::fleet::FleetEvent& fe) {
        if (raw->bus == nullptr) {
          events.push_back(EventRecord{fe.event, wall_now()});
          return;
        }
        if (spans.on()) {
          const std::int32_t id = spans.begin(publish_name);
          raw->bus->publish(static_cast<std::uint16_t>(fe.shard), fe.event);
          r.publish_s += spans.end(id);
        } else {
          raw->bus->publish(static_cast<std::uint16_t>(fe.shard), fe.event);
        }
        ++r.published;
      });
  if (sut->hub) sut->fleet->bind_observability(*sut->hub);
  return sut;
}

/// Drains every subscription; the first (All) feeds the event record.
void drain_bus(Sut& sut, std::vector<EventRecord>& events, PassResult& r) {
  if (sut.bus == nullptr) return;
  sut.bus->tick();
  for (std::size_t i = 0; i < sut.subs.size(); ++i) {
    r.bus_queue_max = std::max(r.bus_queue_max, sut.bus->queued(sut.subs[i]));
    sut.drained.clear();
    sut.bus->drain(sut.subs[i], sut.drained,
                   std::numeric_limits<std::size_t>::max());
    r.bus_delivered += sut.drained.size();
    if (i != 0) continue;
    const double now = wall_now();
    for (const auto& te : sut.drained) {
      tb::core::PipelineEvent e;
      e.kind = te.kind;
      e.user_id = te.user_id;
      e.time_s = te.time_s;
      e.rate_bpm = te.rate_bpm;
      e.reliable = te.reliable;
      e.health = te.health;
      events.push_back(EventRecord{e, now});
    }
  }
}

std::vector<tb::obs::Histogram*> shard_histograms(Sut& sut,
                                                  std::size_t shards) {
  std::vector<tb::obs::Histogram*> out;
  if (!sut.hub) return out;
  for (std::size_t s = 0; s < shards; ++s) {
    char label[32];
    std::snprintf(label, sizeof(label), "s%02zu", s);
    out.push_back(&sut.hub->metrics().histogram(
        "fleet_shard_update_latency_seconds",
        tb::obs::default_latency_bounds(), "shard", label));
  }
  return out;
}

/// Scans every shard journal; in traced passes also re-appends the
/// scanned records, slice by slice, into a scratch journal of the same
/// configuration to time the journal layer's append/commit path.
void check_journals(const Plan& plan, const PassOptions& opt,
                    const std::vector<std::size_t>& shard_of_user,
                    SpanRecorder& spans, PassResult& r) {
  r.journal_scanned_per_user.assign(plan.roster.size(), 0);
  std::vector<tb::core::TagRead> records;
  for (std::size_t s = 0; s < plan.spec.shards; ++s) {
    char sub[32];
    std::snprintf(sub, sizeof(sub), "/shard-%03zu", s);
    const std::int32_t id =
        spans.on() ? spans.begin(spans.name("journal.scan"), s) : -1;
    tb::core::scan_journal(
        opt.journal_dir + sub, 0, [&](const tb::core::JournalRecord& rec) {
          ++r.journal_scanned;
          const std::size_t u = plan.user_index(rec.read.epc.user_id());
          if (u >= plan.roster.size() || shard_of_user[u] != s) {
            ++r.journal_foreign_shard;
          } else {
            ++r.journal_scanned_per_user[u];
          }
          if (spans.on()) records.push_back(rec.read);
        });
    if (id >= 0) spans.end(id);
    if (!spans.on() || records.empty()) continue;
    tb::core::JournalConfig jc;
    jc.directory = opt.journal_dir + "/replay" + sub;
    double append_s = 0.0;
    {
      tb::core::JournalWriter writer(jc);
      std::size_t k = 1;
      const std::int32_t aid = spans.begin(spans.name("journal.append"), s);
      for (const tb::core::TagRead& read : records) {
        while (read.time_s >= plan.pump_time(k)) writer.maybe_commit(plan.pump_time(k++));
        const double t0 = wall_now();
        writer.append(read);
        append_s += wall_now() - t0;
      }
      writer.maybe_commit(plan.pump_time(k));
      spans.end(aid);
      r.journal_commits += writer.counters().journal_commits;
      r.journal_bytes_per_read +=
          static_cast<double>(writer.counters().journal_bytes_written);
    }
    r.journal_append_ns += append_s * 1e9;
    records.clear();
  }
  if (r.journal_scanned > 0 && spans.on()) {
    r.journal_append_ns /= static_cast<double>(r.journal_scanned);
    r.journal_bytes_per_read /= static_cast<double>(r.journal_scanned);
  }
}

}  // namespace

PassResult run_pass(const Plan& plan, const PassOptions& opt) {
  const WorkloadSpec& spec = plan.spec;
  PassResult r;
  std::vector<Span>* span_out = opt.traced ? &r.spans : nullptr;
  SpanRecorder spans(span_out, &r.span_names);
  std::uint16_t n_offer = 0, n_pump = 0, n_tick = 0, n_publish = 0, n_drain = 0,
                n_pass = 0;
  if (spans.on()) {
    r.spans.reserve(plan.pumps() * 4 + plan.roster.size() * plan.steady_ticks + 1024);
    n_pass = spans.name("pass");
    n_offer = spans.name("fleet.offer");
    n_pump = spans.name("fleet.pump");
    n_tick = spans.name("fleet.tick");
    n_publish = spans.name("bus.publish");
    n_drain = spans.name("bus.drain");
  }
  if (spec.journal) {
    std::error_code ec;
    fs::remove_all(opt.journal_dir, ec);
    fs::create_directories(opt.journal_dir);
  }
  const std::size_t ticks = opt.warmup_only ? 0 : plan.steady_ticks;
  const auto per_tick = static_cast<std::size_t>(
      std::llround(1.0 / kPumpPeriodS));
  const std::size_t fill_pumps =
      static_cast<std::size_t>(std::llround(plan.fill_s / kPumpPeriodS));
  const std::size_t last_pump = opt.warmup_only
                                    ? static_cast<std::size_t>(std::llround(
                                          plan.warmup_s / kPumpPeriodS))
                                    : fill_pumps + ticks * per_tick;
  // Ticks after warm-up: the unthrottled fill, then the paced part.
  const std::size_t op_ticks =
      opt.warmup_only ? 0
                      : static_cast<std::size_t>(std::llround(
                            plan.fill_s - plan.warmup_s)) + ticks;
  r.planned = plan.slice_begin[last_pump];

  // The harness's own bookkeeping is sized up front, before the heap
  // baseline, so heap_bytes_per_user counts only the system under test.
  r.offered_per_tag.assign(plan.roster.size(), std::vector<std::size_t>(3, 0));
  std::vector<EventRecord> events;
  events.reserve(2 * plan.roster.size() * (op_ticks + 12) + 1024);
  r.read_to_event_ms.reserve(plan.roster.size() * ticks);
  // Traced passes: wall time each sampled read was offered at.
  std::vector<double> offered_wall;
  if (spans.on()) {
    offered_wall.reserve(r.planned / kDelaySampleEvery + 2);
    r.queue_delay_ms.reserve(r.planned / kDelaySampleEvery + 2);
  }
  const std::size_t pumps = last_pump + 1;
  for (auto* v : {&r.lag_ms, &r.pump_ms, &r.tick_ms, &r.pump_cpu_ms,
                  &r.tick_cpu_ms, &r.shard_skew, &r.cpu_per_period_s})
    v->reserve(pumps);

  const std::int64_t heap_base = heap_live_bytes();
  const double t_construct = wall_now();
  const std::int32_t pass_id = spans.on() ? spans.begin(n_pass) : -1;
  std::unique_ptr<Sut> sut = make_sut(plan, opt, events, spans, r, n_publish);
  tb::fleet::ReaderFleet& fleet = *sut->fleet;
  const auto histos = shard_histograms(*sut, spec.shards);
  std::vector<double> hist_before(histos.size());

  double w0 = 0.0;  // wall time of the warm-up boundary
  const auto due_wall = [&](double t) {
    return w0 + (t - plan.fill_s) / kSpeed;
  };
  double period_cpu = 0.0;
  double sut_end = 0.0;  // wall time the last pump (and bus drain) ended
  bool setup_done = false;

  for (std::size_t k = 1; k <= last_pump; ++k) {
    const double t = plan.pump_time(k);
    const bool steady = k > fill_pumps;
    const bool tick = k % per_tick == 0;
    if (steady && opt.paced) {
      const double due = due_wall(t);
      sleep_until_wall(due);
      // The generator's own lateness: behind its due time, or behind the
      // end of a pump that overran its slot (that overrun is the
      // program's and shows in read_to_event_ms).
      r.lag_ms.push_back(std::max(0.0, wall_now() - std::max(due, sut_end)) * 1e3);
    }
    // Offer the slice (reader reports due at t).
    const std::size_t b = plan.slice_begin[k - 1], e = plan.slice_begin[k];
    const std::int32_t offer_id = spans.on() ? spans.begin(n_offer, e - b) : -1;
    const double offer_cpu0 = cpu_now();
    const double offer_t0 = wall_now();
    for (std::size_t i = b; i < e; ++i) {
      if (static_cast<std::int64_t>(i) == opt.drop_delivery) continue;
      const Delivery& d = plan.deliveries[i];
      if (spans.on() && i % kDelaySampleEvery == 0)
        offered_wall.push_back(wall_now());
      fleet.offer(d.reader, d.read);
    }
    if (offer_id >= 0) spans.end(offer_id);
    r.offer_s += wall_now() - offer_t0;
    double sut_cpu = cpu_now() - offer_cpu0;

    // Pump.
    for (std::size_t s = 0; s < histos.size(); ++s) hist_before[s] = histos[s]->sum();
    const std::int32_t pump_id =
        spans.on() ? spans.begin(tick ? n_tick : n_pump, k) : -1;
    const double pump_cpu0 = cpu_now();
    const double pump_t0 = wall_now();
    fleet.pump(t);
    const double pump_wall = wall_now() - pump_t0;
    const double pump_cpu = cpu_now() - pump_cpu0;
    sut_cpu += pump_cpu;
    if (pump_id >= 0) spans.end(pump_id);
    if (steady && spans.on()) {
      for (const double w : offered_wall)
        r.queue_delay_ms.push_back((pump_t0 - w) * 1e3);
      (tick ? r.tick_ms : r.pump_ms).push_back(pump_wall * 1e3);
      (tick ? r.tick_cpu_ms : r.pump_cpu_ms).push_back(pump_cpu * 1e3);
      if (tick && histos.size() > 1) {
        std::vector<double> d(histos.size());
        for (std::size_t s = 0; s < histos.size(); ++s)
          d[s] = histos[s]->sum() - hist_before[s];
        const double med = percentile(d, 0.5);
        if (med > 0.0)
          r.shard_skew.push_back(*std::max_element(d.begin(), d.end()) / med);
      }
    }
    if (sut->bus) {
      const std::int32_t drain_id = spans.on() ? spans.begin(n_drain) : -1;
      const double drain_cpu0 = cpu_now();
      drain_bus(*sut, events, r);
      sut_cpu += cpu_now() - drain_cpu0;
      if (drain_id >= 0) spans.end(drain_id);
    }
    sut_end = wall_now();
    offered_wall.clear();

    // Bookkeeping, after the pump so it delays no event.
    for (std::size_t i = b; i < e; ++i) {
      if (static_cast<std::int64_t>(i) == opt.drop_delivery) continue;
      const Delivery& d = plan.deliveries[i];
      ++r.offered;
      const std::uint64_t user = d.read.epc.user_id();
      if (user == kItemUserId) {
        ++r.offered_items;
        continue;
      }
      const std::size_t u = plan.user_index(user);
      const std::uint32_t tag = d.read.epc.tag_id();
      if (d.distinct && u < plan.roster.size() && tag >= 1 && tag <= 3)
        ++r.offered_per_tag[u][tag - 1];
    }

    if (!setup_done) {
      for (const EventRecord& ev : events) {
        if (ev.event.kind == tb::core::PipelineEventKind::RateUpdate) {
          r.setup_s = ev.emit_wall_s - t_construct;
          setup_done = true;
          break;
        }
      }
    }
    if (k == fill_pumps) {
      w0 = wall_now();
      heap_reset_peak();
    } else if (steady) {
      // Process CPU (all threads) spent in offer, pump and bus drain:
      // the system's work, not the generator's wait or bookkeeping.
      period_cpu += sut_cpu;
      if (tick) {
        r.cpu_per_period_s.push_back(period_cpu);
        period_cpu = 0.0;
      }
    }
  }
  r.heap_peak_bytes = static_cast<double>(heap_peak_bytes() - heap_base);
  r.op_ticks = op_ticks;

  // --- operations: one RateUpdate per roster user per tick after warm-up.
  // A paced update emitted after the next tick was due is counted as late
  // but does not fail: on a shared machine a stall of the whole process
  // makes that happen now and then, whatever the program does, and it
  // shows in read_to_event_ms_p90 ----------------------------------------
  const std::size_t U = plan.roster.size();
  std::vector<double> emit(U * op_ticks, std::numeric_limits<double>::quiet_NaN());
  for (const EventRecord& ev : events) {
    const tb::core::PipelineEvent& e = ev.event;
    if (e.kind != tb::core::PipelineEventKind::RateUpdate) continue;
    const double tick_index = e.time_s - plan.warmup_s - 1.0;
    if (tick_index < 0.0 || tick_index >= static_cast<double>(op_ticks)) continue;
    const std::size_t u = plan.user_index(e.user_id);
    if (u >= U) continue;
    emit[static_cast<std::size_t>(tick_index) * U + u] = ev.emit_wall_s;
    if (opt.paced && e.time_s > plan.fill_s) {
      const auto& times = plan.read_times[u];
      const auto it = std::lower_bound(times.begin(), times.end(), e.time_s);
      if (it != times.begin())
        r.read_to_event_ms.push_back((ev.emit_wall_s - due_wall(*(it - 1))) * 1e3);
    }
  }
  const std::vector<unsigned char> apnea = apnea_ticks(plan, op_ticks, events);
  for (std::size_t i = 0; i < op_ticks; ++i) {
    const double t = plan.warmup_s + 1.0 + static_cast<double>(i);
    const bool paced = opt.paced && t > plan.fill_s;
    const double deadline = due_wall(t + 1.0);
    for (std::size_t u = 0; u < U; ++u) {
      if (apnea[i * U + u] != 0) {
        ++r.false_apnea_ticks;
        continue;
      }
      ++r.ops_attempted;
      const double w = emit[i * U + u];
      if (std::isnan(w)) {
        ++r.ops_failed;
        continue;
      }
      ++r.updates_present;
      if (paced && w > deadline) ++r.ops_late;
    }
  }

  // --- counters -------------------------------------------------------------
  r.fleet = fleet.counters();
  for (std::size_t i = 0; i < spec.readers; ++i) {
    r.queues.push_back(fleet.reader_queue_counters(i));
    r.shed += r.queues.back().shed_oldest + r.queues.back().coalesced;
  }
  std::size_t footprint = 0;
  for (std::size_t s = 0; s < spec.shards; ++s) {
    const auto& p = fleet.shard_pipeline(s);
    footprint += p.footprint_bytes();
    r.analyses_run += p.analyses_run();
  }
  r.tracked_users = fleet.tracked_users();
  r.footprint_bytes_per_user =
      r.tracked_users == 0 ? 0.0
                           : static_cast<double>(footprint) /
                                 static_cast<double>(r.tracked_users);
  if (sut->bus) {
    for (const std::uint64_t id : sut->subs) {
      const auto c = sut->bus->subscription_counters(id);
      r.subs.push_back(PassResult::Sub{c.published, c.delivered, c.dropped,
                                       c.coalesced, sut->bus->queued(id)});
    }
  }
  if (spans.on())
    r.stages = rerun_stages(fleet, plan, plan.fill_s + static_cast<double>(ticks),
                            32, spans);
  std::vector<std::size_t> shard_of_user;
  for (const std::uint64_t user : plan.roster)
    shard_of_user.push_back(fleet.shard_of(user));
  // Destroying the fleet commits each shard journal's tail (graceful
  // shutdown); the scan then must find every routed read.
  sut.reset();
  if (spec.journal) check_journals(plan, opt, shard_of_user, spans, r);
  if (spans.on()) spans.end(pass_id);
  if (spec.journal) {
    std::error_code ec;
    fs::remove_all(opt.journal_dir, ec);
  }
  r.event_hash = event_log_hash(events);
  r.events = std::move(events);
  return r;
}

}  // namespace wardbench
