// Workload definitions and seeded input generation.
//
// Every read comes from the repository's radio simulator (rfid::ReaderSim
// with the Gen2 MAC and the paper's 10-channel hop plan) driven by the
// body model; nothing here synthesises phase by hand. Inputs are made
// once per process, before any timing starts.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "experiments/scenario.hpp"
#include "rfid/tag.hpp"
#include "ward.hpp"

namespace wardbench {

namespace tb = tagbreathe;

namespace {

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform in [lo, hi) from a hashed key.
double uniform(std::uint64_t key, double lo, double hi) noexcept {
  const double u = static_cast<double>(mix(key) >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

/// Table I bed: one subject, 3 tags, one reader with `antennas` ports.
tb::core::ReadStream simulate_bed(double rate_bpm, std::uint64_t sim_seed,
                                  int antennas, double duration_s) {
  tb::experiments::ScenarioConfig sc;
  sc.users[0].rate_bpm = rate_bpm;
  sc.num_antennas = antennas;
  sc.duration_s = duration_s;
  sc.seed = sim_seed;
  tb::experiments::Scenario scenario(sc);
  return scenario.run();
}

/// One tag read by a reader of its own: the same subject geometry as a
/// Table I bed, but no other tag shares the air time.
tb::core::ReadStream simulate_lone_tag(double rate_bpm, std::uint64_t sim_seed,
                                       std::uint64_t sway_seed, int site,
                                       double duration_s) {
  tb::body::SubjectConfig subject_cfg;
  subject_cfg.user_id = 1;
  subject_cfg.position = {4.0, 0.0, 0.0};
  subject_cfg.heading_rad = tb::common::kPi;
  subject_cfg.sway_seed = sway_seed;
  tb::body::Subject subject(
      subject_cfg,
      tb::body::BreathingModel(tb::body::MetronomeSchedule(rate_bpm),
                               tb::body::BreathShape{}));
  std::vector<std::unique_ptr<tb::rfid::TagBehavior>> tags;
  tags.push_back(std::make_unique<tb::rfid::BodyTag>(
      tb::rfid::Epc96::from_user_tag(1, static_cast<std::uint32_t>(site + 1)),
      &subject, tb::body::Subject::all_sites()[static_cast<std::size_t>(site)]));
  tb::rfid::ReaderConfig rc;
  rc.seed = sim_seed * 7919 + 13;
  rc.hop_seed = sim_seed * 31 + 5;
  rc.antennas.front().position = {0.0, 0.0, 1.0};
  tb::rfid::ReaderSim reader(rc, std::move(tags));
  return reader.run(duration_s);
}

/// Item-labelling tags on the furniture around one bed, read by the
/// bed's reader; their EPCs name no monitored user.
tb::core::ReadStream simulate_items(std::size_t count, std::uint64_t sim_seed,
                                    double duration_s) {
  std::vector<std::unique_ptr<tb::rfid::TagBehavior>> tags;
  for (std::size_t i = 0; i < count; ++i) {
    const double x = 1.0 + 0.12 * static_cast<double>(i);
    const double y = (i % 2 == 0) ? 1.5 : -1.2;
    tags.push_back(std::make_unique<tb::rfid::StaticTag>(
        tb::rfid::Epc96::from_user_tag(kItemUserId,
                                       static_cast<std::uint32_t>(i + 1)),
        tb::common::Vec3{x, y, 0.5 + 0.07 * static_cast<double>(i % 7)}));
  }
  tb::rfid::ReaderConfig rc;
  rc.seed = sim_seed * 7919 + 13;
  rc.hop_seed = sim_seed * 31 + 5;
  rc.antennas.front().position = {0.0, 0.0, 1.0};
  tb::rfid::ReaderSim reader(rc, std::move(tags));
  return reader.run(duration_s);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ward_table1", "ward_dense",
                                                 "ward_failover"};
  return names;
}

WorkloadSpec workload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "ward_table1") {
    w.beds = 64;
    w.readers = w.beds;
  } else if (name == "ward_dense") {
    w.beds = 40;
    w.readers = w.beds;
    w.per_tag_readers = true;
    w.item_tags_per_bed = 4;
  } else if (name == "ward_failover") {
    w.beds = 48;
    w.readers = 8;
    w.shards = 6;
    w.shard_threads = 2;
    w.journal = true;
    w.bus = true;
    w.overlap = true;
    w.roamers = 6;
    w.blackout_from_frac = 0.4;
    w.blackout_len_s = 12.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::size_t Plan::user_index(std::uint64_t user) const {
  const auto it = std::lower_bound(roster.begin(), roster.end(), user);
  if (it == roster.end() || *it != user) return roster.size();
  return static_cast<std::size_t>(it - roster.begin());
}

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed,
               std::size_t steady_ticks) {
  Plan plan;
  plan.spec = spec;
  plan.seed = seed;
  plan.steady_ticks = steady_ticks;
  plan.end_s = plan.fill_s + static_cast<double>(steady_ticks);
  // Simulate a little past the end so the shift to t=0 never leaves the
  // tail short.
  const double sim_s = plan.end_s + 1.0;
  const std::size_t R = spec.readers;

  struct Raw {
    TagRead read;
    std::uint32_t reader;
  };
  std::vector<Raw> raw;
  for (std::size_t b = 0; b < spec.beds; ++b) {
    const std::uint64_t user = b + 1;
    const std::uint64_t key = seed * 1000003ull + b;
    // Spread over the paper's evaluation range (Fig. 12: 5-20 bpm), one
    // seeded draw per equal-width stratum so every seed covers it evenly.
    const double stratum = 15.0 / static_cast<double>(spec.beds);
    const double rate =
        5.0 + stratum * (static_cast<double>(b) + uniform(key, 0.0, 1.0));
    plan.roster.push_back(user);
    plan.truth_bpm.push_back(rate);
    const std::uint64_t sim_seed = (mix(key ^ 0x5eedull) % 1000000007ull) + 1;

    const auto add = [&](tb::core::ReadStream reads, std::uint64_t as_user,
                         std::uint32_t tag_offset) {
      for (TagRead& r : reads) {
        r.epc = tb::rfid::Epc96::from_user_tag(
            as_user, r.epc.tag_id() + tag_offset);
        raw.push_back(Raw{r, 0});
      }
    };
    const std::size_t first = raw.size();
    if (spec.per_tag_readers) {
      for (int site = 0; site < 3; ++site) {
        tb::core::ReadStream reads = simulate_lone_tag(
            rate, sim_seed * 3 + static_cast<std::uint64_t>(site), sim_seed,
            site, sim_s);
        add(std::move(reads), user, 0);
      }
    } else {
      add(simulate_bed(rate, sim_seed, spec.overlap ? 2 : 1, sim_s), user, 0);
    }
    if (spec.item_tags_per_bed > 0) {
      add(simulate_items(spec.item_tags_per_bed, sim_seed + 17, sim_s),
          kItemUserId, static_cast<std::uint32_t>(b * 64));
    }
    // Reader assignment: the bed's home reader hears port 1; with
    // overlap, the next reader's antenna (reported as port 2) hears it
    // too. Roaming users hop one reader every roam period.
    const std::size_t home = b % R;
    for (std::size_t i = first; i < raw.size(); ++i) {
      Raw& r = raw[i];
      std::size_t reader = home;
      if (b < spec.roamers) {
        reader = (home + static_cast<std::size_t>(r.read.time_s /
                                                  kRoamPeriodS)) % R;
      }
      if (spec.overlap && r.read.antenna_id == 2) reader = (reader + 1) % R;
      r.reader = static_cast<std::uint32_t>(reader);
    }
  }

  // Shift so the first monitored read lands exactly on t = 0: the fleet
  // anchors its update grid there, so update ticks fall on pump times.
  double t_first = 1e300;
  for (const Raw& r : raw)
    if (r.read.epc.user_id() != kItemUserId)
      t_first = std::min(t_first, r.read.time_s);
  for (Raw& r : raw) r.read.time_s -= t_first;

  // Roaming overlap: the first few port-1 reads after each hop are also
  // heard by the previous reader (the same inventory round, delivered
  // twice; the fleet suppresses the copy).
  std::vector<Raw> extra;
  if (spec.roamers > 0) {
    std::vector<std::vector<std::size_t>> per_user(spec.roamers);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const std::uint64_t u = raw[i].read.epc.user_id();
      if (u >= 1 && u <= spec.roamers && raw[i].read.antenna_id == 1)
        per_user[u - 1].push_back(i);
    }
    for (auto& idx : per_user) {
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return raw[a].read.time_s < raw[b].read.time_s;
      });
      std::size_t prev_reader = idx.empty() ? 0 : raw[idx.front()].reader;
      std::size_t left = 0;
      for (const std::size_t i : idx) {
        if (raw[i].reader != prev_reader) {
          extra.push_back(
              Raw{raw[i].read, static_cast<std::uint32_t>(prev_reader)});
          left = kRoamOverlapReads;
          prev_reader = raw[i].reader;
          --left;
        } else if (left > 0) {
          const std::size_t before = (raw[i].reader + R - 1) % R;
          extra.push_back(Raw{raw[i].read, static_cast<std::uint32_t>(before)});
          --left;
        }
      }
    }
  }
  raw.insert(raw.end(), extra.begin(), extra.end());

  // Blackout: reader 0 is dark for a stretch of the steady part; reads
  // it would have reported are never offered.
  if (spec.blackout_len_s > 0.0) {
    plan.blackout_reader = 0;
    plan.blackout_from_s =
        std::floor(plan.fill_s + spec.blackout_from_frac *
                                       static_cast<double>(steady_ticks));
    plan.blackout_to_s = plan.blackout_from_s + spec.blackout_len_s;
  }
  const auto dark = [&](const Raw& r) {
    return plan.blackout_reader >= 0 &&
           r.reader == static_cast<std::uint32_t>(plan.blackout_reader) &&
           r.read.time_s >= plan.blackout_from_s &&
           r.read.time_s < plan.blackout_to_s;
  };
  std::erase_if(raw, [&](const Raw& r) {
    return r.read.time_s < 0.0 || r.read.time_s >= plan.end_s || dark(r);
  });
  // A roaming copy whose original was blacked out becomes the only copy.
  std::sort(raw.begin(), raw.end(), [](const Raw& a, const Raw& b) {
    if (a.read.time_s != b.read.time_s) return a.read.time_s < b.read.time_s;
    if (a.reader != b.reader) return a.reader < b.reader;
    if (a.read.epc.user_id() != b.read.epc.user_id())
      return a.read.epc.user_id() < b.read.epc.user_id();
    if (a.read.epc.tag_id() != b.read.epc.tag_id())
      return a.read.epc.tag_id() < b.read.epc.tag_id();
    return a.read.antenna_id < b.read.antenna_id;
  });

  plan.read_times.assign(plan.roster.size(), {});
  plan.deliveries.reserve(raw.size());
  // Distinct reads: (user, tag, antenna, time); a duplicate is any
  // further delivery of one already planned.
  std::vector<std::vector<std::pair<double, std::uint32_t>>> seen(
      plan.roster.size());
  for (const Raw& r : raw) {
    plan.deliveries.push_back(Delivery{r.read, r.reader, true});
    const std::uint64_t user = r.read.epc.user_id();
    if (user == kItemUserId) {
      ++plan.item_reads;
      continue;
    }
    const std::size_t u = plan.user_index(user);
    const std::uint32_t stream =
        r.read.epc.tag_id() * 256u + r.read.antenna_id;
    auto& s = seen[u];
    bool dup = false;
    for (auto it = s.rbegin(); it != s.rend() && it->first == r.read.time_s;
         ++it)
      dup = dup || it->second == stream;
    if (dup) {
      plan.deliveries.back().distinct = false;
      ++plan.duplicate_deliveries;
      continue;
    }
    s.emplace_back(r.read.time_s, stream);
    plan.read_times[u].push_back(r.read.time_s);
  }

  // Pump slices.
  const std::size_t pumps = static_cast<std::size_t>(
      std::llround(plan.end_s / kPumpPeriodS));
  plan.slice_begin.assign(pumps + 1, 0);
  std::size_t i = 0;
  for (std::size_t k = 1; k <= pumps; ++k) {
    const double t = plan.pump_time(k);
    while (i < plan.deliveries.size() && plan.deliveries[i].read.time_s < t) ++i;
    plan.slice_begin[k] = i;
  }
  if (plan.slice_begin[pumps] != plan.deliveries.size())
    throw std::logic_error("plan: deliveries beyond the last pump");
  return plan;
}

}  // namespace wardbench
