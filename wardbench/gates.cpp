// Correctness gates. Each appends a line per violation; any violation
// fails the command. They check the program's outputs against the plan
// (computed apart from the program) or against properties the method
// must have — never against a recording of today's output.
#include <cmath>
#include <cstdio>
#include <string>

#include "core/chaos.hpp"
#include "ward.hpp"

namespace wardbench {

namespace tb = tagbreathe;

namespace {

constexpr std::size_t kMaxLines = 20;

void add(std::vector<std::string>& v, std::string line) {
  if (v.size() < kMaxLines) v.push_back(std::move(line));
}

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", x);
  return buf;
}

}  // namespace

std::uint64_t event_log_hash(const std::vector<EventRecord>& events) {
  std::uint64_t h = 14695981039346656037ull;
  const auto feed = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const EventRecord& ev : events) {
    for (const char c : tb::core::format_soak_event(ev.event))
      feed(static_cast<unsigned char>(c));
    feed('\n');
  }
  return h;
}

void gate_offered(const Plan& plan, const PassResult& r,
                  std::vector<std::string>& v) {
  // The plan's own count of distinct reads per (user, tag) over the
  // slices this pass covered, against what the offer loop handed over.
  std::vector<std::vector<std::size_t>> planned(
      plan.roster.size(), std::vector<std::size_t>(3, 0));
  std::size_t items = 0;
  for (std::size_t i = 0; i < r.planned; ++i) {
    const Delivery& d = plan.deliveries[i];
    const std::uint64_t user = d.read.epc.user_id();
    if (user == kItemUserId) {
      ++items;
      continue;
    }
    const std::size_t u = plan.user_index(user);
    const std::uint32_t tag = d.read.epc.tag_id();
    if (u < plan.roster.size() && d.distinct && tag >= 1 && tag <= 3)
      ++planned[u][tag - 1];
  }
  for (std::size_t u = 0; u < plan.roster.size(); ++u)
    for (std::size_t t = 0; t < 3; ++t)
      if (r.offered_per_tag[u][t] != planned[u][t])
        add(v, "generator: user " + std::to_string(plan.roster[u]) + " tag " +
                   std::to_string(t + 1) + " offered " +
                   std::to_string(r.offered_per_tag[u][t]) + " of " +
                   std::to_string(planned[u][t]) + " planned reads");
  if (r.offered_items != items)
    add(v, "generator: offered " + std::to_string(r.offered_items) + " of " +
               std::to_string(items) + " planned item-tag reads");
  if (r.offered != r.planned)
    add(v, "generator: offered " + std::to_string(r.offered) + " of " +
               std::to_string(r.planned) + " planned deliveries");
}

void gate_lag(double lag_p90_ms, std::vector<std::string>& v) {
  if (lag_p90_ms > kLagBoundMs)
    add(v, "generator: gen.lag_ms_p90 " + num(lag_p90_ms) + " ms exceeds " +
               num(kLagBoundMs) + " ms; the load was not offered on time");
}

void gate_conservation(const PassResult& r, std::vector<std::string>& v) {
  std::size_t drained = 0;
  for (std::size_t i = 0; i < r.queues.size(); ++i) {
    const auto& q = r.queues[i];
    drained += q.drained;
    if (q.enqueued != q.drained + q.shed_oldest + q.coalesced)
      add(v, "reader " + std::to_string(i) + ": enqueued " +
                 std::to_string(q.enqueued) + " != drained + shed + coalesced");
  }
  const auto& c = r.fleet;
  if (drained != c.admitted + c.quarantined)
    add(v, "fleet: sum(drained) " + std::to_string(drained) +
               " != admitted + quarantined " +
               std::to_string(c.admitted + c.quarantined));
  if (c.admitted != c.routed + c.handoff_suppressed)
    add(v, "fleet: admitted " + std::to_string(c.admitted) +
               " != routed + handoff_suppressed " +
               std::to_string(c.routed + c.handoff_suppressed));
  if (r.offered != 0 && drained != r.offered)
    add(v, "fleet: drained " + std::to_string(drained) + " of " +
               std::to_string(r.offered) + " offered reads");
}

void gate_bus(const PassResult& r, std::vector<std::string>& v) {
  for (std::size_t i = 0; i < r.subs.size(); ++i) {
    const auto& s = r.subs[i];
    if (s.published != s.delivered + s.dropped + s.coalesced + s.queued)
      add(v, "bus subscriber " + std::to_string(i) + ": published " +
                 std::to_string(s.published) +
                 " != delivered + dropped + coalesced + queued");
  }
  if (!r.subs.empty() && r.subs[0].published != r.published)
    add(v, "bus: the all-events subscriber saw " +
               std::to_string(r.subs[0].published) + " of " +
               std::to_string(r.published) + " published events");
}

void gate_journal(const Plan& plan, const PassResult& r,
                  std::vector<std::string>& v) {
  if (!plan.spec.journal) return;
  if (r.journal_scanned != r.fleet.routed)
    add(v, "journal: scanned " + std::to_string(r.journal_scanned) +
               " records, fleet routed " + std::to_string(r.fleet.routed));
  if (r.journal_foreign_shard != 0)
    add(v, "journal: " + std::to_string(r.journal_foreign_shard) +
               " records in a shard the user does not map to");
  // Every distinct read offered reaches its shard exactly once (overlap
  // copies are suppressed, never journalled twice).
  for (std::size_t u = 0; u < plan.roster.size(); ++u) {
    std::size_t offered = 0;
    for (const std::size_t n : r.offered_per_tag[u]) offered += n;
    if (r.journal_scanned_per_user[u] != offered)
      add(v, "journal: user " + std::to_string(plan.roster[u]) + " has " +
                 std::to_string(r.journal_scanned_per_user[u]) +
                 " journalled reads, " + std::to_string(offered) +
                 " distinct reads offered");
  }
}

std::vector<unsigned char> apnea_ticks(const Plan& plan,
                                       std::size_t steady_ticks,
                                       const std::vector<EventRecord>& events) {
  const std::size_t U = plan.roster.size();
  std::vector<unsigned char> mask(U * steady_ticks, 0);
  // Tick index the user entered apnea at (-1 = not in apnea).
  std::vector<double> since(U, -1.0);
  const auto fill = [&](std::size_t u, double until_tick) {
    if (since[u] < 0.0) return;
    for (double t = std::max(since[u], 0.0);
         t < until_tick && t < static_cast<double>(steady_ticks); t += 1.0)
      mask[static_cast<std::size_t>(t) * U + u] = 1;
  };
  for (const EventRecord& ev : events) {
    const auto& e = ev.event;
    const std::size_t u = plan.user_index(e.user_id);
    if (u >= U) continue;
    const double tick = e.time_s - plan.warmup_s - 1.0;
    if (e.kind == tb::core::PipelineEventKind::ApneaAlert) {
      if (since[u] < 0.0) since[u] = tick;
    } else if (e.kind == tb::core::PipelineEventKind::RateUpdate) {
      fill(u, tick);
      since[u] = -1.0;
    }
  }
  for (std::size_t u = 0; u < U; ++u)
    fill(u, static_cast<double>(steady_ticks));
  return mask;
}

void gate_false_apnea(const PassResult& r, std::vector<std::string>& v) {
  const std::size_t all = r.ops_attempted + r.false_apnea_ticks;
  if (static_cast<double>(r.false_apnea_ticks) >
      kFalseApneaMaxShare * static_cast<double>(all))
    add(v, "events: " + std::to_string(r.false_apnea_ticks) + " of " +
               std::to_string(all) +
               " user-ticks held in an apnea state without a RateUpdate, "
               "above " + num(kFalseApneaMaxShare * 100.0) +
               "%; no subject stops breathing");
}

void gate_event_stream(const Plan& plan, std::size_t steady_ticks,
                       const std::vector<EventRecord>& events,
                       std::vector<std::string>& v) {
  const std::size_t U = plan.roster.size();
  std::vector<std::size_t> count(U * steady_ticks, 0);
  // Other events per (tick, user), to say what came instead.
  std::vector<std::string> other(U * steady_ticks);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i].event;
    if (i > 0) {
      const auto& p = events[i - 1].event;
      if (e.time_s < p.time_s || (e.time_s == p.time_s && e.user_id < p.user_id))
        add(v, "events: out of (time, user) order at t=" + num(e.time_s) +
                   " user " + std::to_string(e.user_id));
    }
    const std::size_t u = plan.user_index(e.user_id);
    if (u >= U) {
      add(v, "events: user " + std::to_string(e.user_id) +
                 " is not on the roster");
      continue;
    }
    const double tick = e.time_s - plan.warmup_s - 1.0;
    const bool steady =
        tick >= 0.0 && tick < static_cast<double>(steady_ticks);
    if (e.kind != tb::core::PipelineEventKind::RateUpdate) {
      if (steady && std::floor(tick) == tick)
        other[static_cast<std::size_t>(tick) * U + u] +=
            std::string(" ") + tb::core::pipeline_event_name(e.kind);
      continue;
    }
    if (std::floor(e.time_s) != e.time_s)
      add(v, "events: RateUpdate off the update grid at t=" + num(e.time_s));
    if (steady) ++count[static_cast<std::size_t>(tick) * U + u];
  }
  const std::vector<unsigned char> apnea = apnea_ticks(plan, steady_ticks, events);
  for (std::size_t i = 0; i < steady_ticks; ++i)
    for (std::size_t u = 0; u < U; ++u)
      if (count[i * U + u] != (apnea[i * U + u] != 0 ? 0u : 1u))
        add(v, "events: user " + std::to_string(plan.roster[u]) + " has " +
                   std::to_string(count[i * U + u]) + " RateUpdates at t=" +
                   num(plan.warmup_s + 1.0 + static_cast<double>(i)) +
                   (other[i * U + u].empty() ? "" : " (instead:" + other[i * U + u] + ")") +
                   ", commanded " + num(plan.truth_bpm[u]) + " bpm");
}

double eq8_accuracy(const Plan& plan, const std::vector<EventRecord>& events,
                    std::size_t* reliable) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const EventRecord& ev : events) {
    const auto& e = ev.event;
    if (e.kind != tb::core::PipelineEventKind::RateUpdate || !e.reliable ||
        e.time_s <= plan.warmup_s)
      continue;
    const std::size_t u = plan.user_index(e.user_id);
    if (u >= plan.roster.size()) continue;
    const double truth = plan.truth_bpm[u];
    sum += 1.0 - std::abs(e.rate_bpm - truth) / truth;  // Eq. 8
    ++n;
  }
  if (reliable != nullptr) *reliable = n;
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void gate_eq8(double accuracy, std::size_t reliable,
              std::vector<std::string>& v) {
  if (reliable == 0) {
    add(v, "accuracy: no reliable RateUpdate in the steady part");
  } else if (!(accuracy >= kEq8Floor)) {
    add(v, "accuracy: Eq. 8 mean " + num(accuracy) + " over " +
               std::to_string(reliable) + " reliable updates is below " +
               num(kEq8Floor));
  }
}

void gate_hash(std::uint64_t a, std::uint64_t b, const std::string& what,
               std::vector<std::string>& v) {
  if (a != b) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "determinism: event-log hash %016llx != %016llx (%s)",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b), what.c_str());
    add(v, buf);
  }
}

}  // namespace wardbench
