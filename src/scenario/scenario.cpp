#include "scenario/scenario.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "attack/hammer_gate.hpp"
#include "common/error.hpp"
#include "common/fields.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/channel.hpp"
#include "core/system.hpp"
#include "traffic/sharding.hpp"

namespace dl::scenario {

using dl::dram::Controller;
using dl::dram::GlobalRowId;

const char* to_string(CampaignStatus status) {
  switch (status) {
    case CampaignStatus::kOk:        return "ok";
    case CampaignStatus::kFailed:    return "failed";
    case CampaignStatus::kTruncated: return "truncated";
  }
  return "?";
}

// --------------------------------------------------------- DefenseSpec

DefenseSpec DefenseSpec::none() { return {}; }

DefenseSpec DefenseSpec::trr(double p, std::uint32_t radius,
                             std::uint64_t seed) {
  DefenseSpec d;
  d.kind = Kind::kTrrSampler;
  d.sample_probability = p;
  d.radius = radius;
  d.seed = seed;
  return d;
}

DefenseSpec DefenseSpec::counter_per_row(std::uint64_t threshold,
                                         std::uint32_t radius) {
  DefenseSpec d;
  d.kind = Kind::kCounterPerRow;
  d.threshold = threshold;
  d.radius = radius;
  return d;
}

DefenseSpec DefenseSpec::graphene(std::uint64_t threshold, std::size_t entries,
                                  std::uint32_t radius) {
  DefenseSpec d;
  d.kind = Kind::kGraphene;
  d.threshold = threshold;
  d.entries = entries;
  d.radius = radius;
  return d;
}

DefenseSpec DefenseSpec::counter_tree(std::uint64_t threshold,
                                      std::uint32_t group_rows,
                                      std::uint32_t radius) {
  DefenseSpec d;
  d.kind = Kind::kCounterTree;
  d.threshold = threshold;
  d.group_rows = group_rows;
  d.radius = radius;
  return d;
}

DefenseSpec DefenseSpec::hydra(std::uint64_t threshold,
                               std::uint32_t group_rows,
                               std::uint32_t radius) {
  DefenseSpec d;
  d.kind = Kind::kHydra;
  d.threshold = threshold;
  d.group_rows = group_rows;
  d.radius = radius;
  return d;
}

DefenseSpec DefenseSpec::row_swap(std::uint64_t threshold, bool lazy_unswap,
                                  std::uint64_t seed) {
  DefenseSpec d;
  d.kind = Kind::kRowSwap;
  d.threshold = threshold;
  d.lazy_unswap = lazy_unswap;
  d.seed = seed;
  return d;
}

DefenseSpec DefenseSpec::shadow(std::uint64_t threshold, std::uint64_t seed) {
  DefenseSpec d;
  d.kind = Kind::kShadow;
  d.threshold = threshold;
  d.seed = seed;
  return d;
}

DefenseSpec DefenseSpec::dram_locker(const dl::defense::DramLockerConfig& cfg,
                                     std::uint64_t seed) {
  DefenseSpec d;
  d.kind = Kind::kDramLocker;
  d.locker = cfg;
  d.seed = seed;
  return d;
}

DefenseSpec DefenseSpec::with_integrity(const IntegritySpec& spec) const {
  DefenseSpec d = *this;
  d.integrity = spec;
  d.integrity.enabled = true;
  return d;
}

const char* to_string(DefenseSpec::Kind kind) {
  switch (kind) {
    case DefenseSpec::Kind::kNone:          return "none";
    case DefenseSpec::Kind::kTrrSampler:    return "trr";
    case DefenseSpec::Kind::kCounterPerRow: return "counter-per-row";
    case DefenseSpec::Kind::kGraphene:      return "graphene";
    case DefenseSpec::Kind::kCounterTree:   return "counter-tree";
    case DefenseSpec::Kind::kHydra:         return "hydra";
    case DefenseSpec::Kind::kRowSwap:       return "row-swap";
    case DefenseSpec::Kind::kShadow:        return "shadow";
    case DefenseSpec::Kind::kDramLocker:    return "dram-locker";
  }
  return "?";
}

std::string defense_label(const DefenseSpec& spec) {
  std::string label = to_string(spec.kind);
  if (spec.integrity.enabled) label += "+integrity";
  return label;
}

// ------------------------------------------------------------ run_one
//
// Every hammer and serve campaign runs on env.fabric.channels core::Channels
// (one by default) sharing one flat fabric row space: tenant working sets,
// protected rows and victim rows are fabric rows, sharded to their owning
// channels.  The helpers below are shared by run_one and run_serve.

namespace {

using dl::dram::ChannelId;
using dl::traffic::StreamSpec;
using dl::traffic::TrafficReport;

/// Fills the channel's slot for the defense `spec` selects and wires it
/// into the controller; DRAM-Locker also locks the neighbours of
/// `protected_rows`.  Returns the rows locked.
std::size_t install_defense(core::Channel& ch, const DefenseSpec& spec,
                            const std::vector<GlobalRowId>& protected_rows) {
  using Kind = DefenseSpec::Kind;
  Controller& ctrl = ch.ctrl;
  std::size_t locked_rows = 0;
  switch (spec.kind) {
    case Kind::kNone:
      break;
    case Kind::kTrrSampler:
      ch.trr = std::make_unique<dl::defense::TrrSampler>(
          ctrl, spec.sample_probability, spec.radius, dl::Rng(spec.seed));
      ctrl.add_listener(ch.trr.get());
      break;
    case Kind::kCounterPerRow:
      ch.counter_per_row = std::make_unique<dl::defense::CounterPerRow>(
          ctrl, spec.threshold, spec.radius);
      ctrl.add_listener(ch.counter_per_row.get());
      break;
    case Kind::kGraphene:
      ch.graphene = std::make_unique<dl::defense::Graphene>(
          ctrl, spec.threshold, spec.entries, spec.radius);
      ctrl.add_listener(ch.graphene.get());
      break;
    case Kind::kCounterTree:
      ch.counter_tree = std::make_unique<dl::defense::CounterTree>(
          ctrl, spec.threshold, spec.group_rows, spec.radius);
      ctrl.add_listener(ch.counter_tree.get());
      break;
    case Kind::kHydra:
      ch.hydra = std::make_unique<dl::defense::Hydra>(
          ctrl, spec.threshold, spec.group_rows, spec.radius);
      ctrl.add_listener(ch.hydra.get());
      break;
    case Kind::kRowSwap:
      ch.row_swap = std::make_unique<dl::defense::RowSwap>(
          ctrl,
          dl::defense::RowSwapConfig{.threshold = spec.threshold,
                                     .lazy_unswap = spec.lazy_unswap,
                                     .swap_budget = spec.swap_budget,
                                     .degrade_radius = spec.radius},
          dl::Rng(spec.seed));
      ctrl.add_listener(ch.row_swap.get());
      break;
    case Kind::kShadow:
      ch.shadow = std::make_unique<dl::defense::Shadow>(
          ctrl, dl::defense::ShadowConfig{.threshold = spec.threshold},
          dl::Rng(spec.seed));
      ctrl.add_listener(ch.shadow.get());
      break;
    case Kind::kDramLocker:
      ch.locker = std::make_unique<dl::defense::DramLocker>(
          ctrl, spec.locker, dl::Rng(spec.seed));
      ctrl.set_gate(ch.locker.get());
      for (const GlobalRowId row : protected_rows) {
        locked_rows += ch.locker->protect_data_row(row);
      }
      break;
  }
  return locked_rows;
}

/// Adds the tracker and migration counters only hammer reports carry;
/// harvest_channels() takes the DRAM-Locker stats.
void harvest_defense(const core::Channel& ch, HammerCampaignResult& r) {
  using dl::fields::merge;
  if (ch.trr != nullptr) merge(r.tracker, ch.trr->stats());
  if (ch.counter_per_row != nullptr) {
    merge(r.tracker, ch.counter_per_row->stats());
  }
  if (ch.graphene != nullptr) merge(r.tracker, ch.graphene->stats());
  if (ch.counter_tree != nullptr) merge(r.tracker, ch.counter_tree->stats());
  if (ch.hydra != nullptr) merge(r.tracker, ch.hydra->stats());
  if (ch.row_swap != nullptr) {
    r.swaps += ch.row_swap->swaps();
    r.unswaps += ch.row_swap->unswaps();
    r.degraded_migrations += ch.row_swap->degraded();
  }
  if (ch.shadow != nullptr) r.swaps += ch.shadow->shuffles();
}

/// Victim rows of a roster's hammer tenants, in roster order.
std::vector<GlobalRowId> hammer_victims(const std::vector<StreamSpec>& tenants) {
  std::vector<GlobalRowId> victims;
  for (const auto& t : tenants) {
    if (t.kind == dl::traffic::StreamKind::kHammer) {
      victims.push_back(t.victim_row);
    }
  }
  return victims;
}

/// Logical rows whose data a hammer campaign's attackers target: the
/// hammer tenants' victims, else the burst attack's victim row.
std::vector<GlobalRowId> traffic_victims(const HammerCampaign& campaign) {
  std::vector<GlobalRowId> victims = hammer_victims(campaign.traffic.tenants);
  if (victims.empty()) victims.push_back(campaign.attack.victim_row);
  return victims;
}

/// Deduplicates a row list, preserving first-occurrence order.
std::vector<GlobalRowId> dedup_rows(const std::vector<GlobalRowId>& rows) {
  std::vector<GlobalRowId> unique;
  for (const GlobalRowId row : rows) {
    bool seen = false;
    for (const GlobalRowId u : unique) seen = seen || u == row;
    if (!seen) unique.push_back(row);
  }
  return unique;
}

/// Seeds the guarded rows with a deterministic non-zero pattern (the
/// stand-in for real protected data) so corrections restore actual
/// contents and the end-of-campaign audit diffs against something
/// meaningful.  Written straight into the backing store: this is the
/// pre-attack initial state, not accounted traffic.
void seed_scrub_rows(Controller& ctrl, const std::vector<GlobalRowId>& rows) {
  std::vector<std::uint8_t> pattern(ctrl.geometry().row_bytes);
  for (const GlobalRowId row : rows) {
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::uint8_t>(row * 131 + i * 7 + 3);
    }
    ctrl.data().write(ctrl.indirection().to_physical(row), 0, pattern);
  }
}

/// Seed epoch reserved for per-channel fabric sub-streams (epochs 0-4 are
/// taken by expand() and the per-round tenant reseed; 6 by tenant sharding).
constexpr std::uint64_t kFabricSeedEpoch = 5;

/// Channel 0 keeps every declared seed verbatim, and channels > 0 draw
/// decorrelated sub-streams.
std::uint64_t channel_seed(std::uint64_t declared, ChannelId channel) {
  return channel == 0
             ? declared
             : dl::substream_seed(declared, kFabricSeedEpoch, channel);
}

/// Wires a RowRetirer between a channel's scrubber (the strike source and
/// snapshot provider) and its controller, registering it as a listener
/// after the defense and before the injector.
std::unique_ptr<dl::resilience::RowRetirer> make_retirer(
    Controller& ctrl, const dl::resilience::ResilienceSpec& spec,
    dl::integrity::DramScrubber& scrubber) {
  spec.validate(ctrl.geometry().total_rows());
  auto retirer = std::make_unique<dl::resilience::RowRetirer>(ctrl, spec);
  dl::resilience::RowRetirer* rp = retirer.get();
  dl::integrity::DramScrubber* sp = &scrubber;
  scrubber.set_fault_observer([rp](GlobalRowId row, Picoseconds now) {
    rp->note_uncorrectable(row, now);
  });
  retirer->set_rematerializer(
      [sp](GlobalRowId row, std::vector<std::uint8_t>& out) {
        return sp->snapshot_row(row, out);
      });
  ctrl.add_listener(rp);
  return retirer;
}

/// Validates a campaign's fabric declaration and builds its mapper.  The
/// fabric shape (channel count, per-channel geometry, interleave) goes
/// through the same core::validate as a core::Fabric.
dl::dram::FabricMapper fabric_mapper(const DramEnv& env) {
  DL_REQUIRE(env.geometry.channels == 1,
             "campaigns declare per-channel geometry "
             "(geometry.channels must stay 1; the channel count lives in "
             "env.fabric.channels)");
  core::SystemConfig shape;
  shape.geometry = env.geometry;
  shape.geometry.channels = env.fabric.channels;
  shape.interleave = env.fabric.interleave;
  core::validate(shape);
  DL_REQUIRE(env.fabric.channel_defenses.empty() ||
                 env.fabric.channel_defenses.size() == env.fabric.channels,
             "env.fabric.channel_defenses must be empty or declare exactly "
             "one defense per channel");
  return dl::dram::FabricMapper(env.fabric.channels, env.geometry.total_rows(),
                                env.geometry.row_bytes, env.fabric.interleave);
}

/// Fabric rows -> per-channel lists of channel-local rows (channel order
/// preserved within each list).
std::vector<std::vector<GlobalRowId>> partition_rows(
    const dl::dram::FabricMapper& mapper,
    const std::vector<GlobalRowId>& fabric_rows, const char* what) {
  std::vector<std::vector<GlobalRowId>> local(mapper.channels());
  for (const GlobalRowId row : fabric_rows) {
    if (row >= mapper.total_rows()) {
      std::string msg = what;
      msg += " row ";
      msg += std::to_string(row);
      msg += " exceeds the fabric row space (";
      msg += std::to_string(mapper.total_rows());
      msg += " rows)";
      throw dl::Error(msg);
    }
    local[mapper.channel_of(row)].push_back(mapper.local_row(row));
  }
  return local;
}

/// Builds a campaign's channels in channel order, each attached in the
/// order model -> defense -> scrubber -> retirer -> injector, and adds the
/// rows DRAM-Locker locked to `locked_rows`.  The integrity add-on is
/// fabric-wide (taken from `base_defense`); per-channel defense overrides
/// replace only the preventive mechanism.  The scrubber guards the
/// declared protected rows, else the attackers' `victims` (deduplicated,
/// order-preserving).  Fault targets (faults.target_base/target_rows) are
/// interpreted channel-locally.
core::Channels build_channels(const DramEnv& env,
                              const DefenseSpec& base_defense,
                              const dl::dram::FabricMapper& mapper,
                              const std::vector<GlobalRowId>& protected_rows,
                              const std::vector<GlobalRowId>& victims,
                              std::size_t& locked_rows) {
  const IntegritySpec& ispec = base_defense.integrity;
  const auto protected_local =
      partition_rows(mapper, protected_rows, "protected");
  const auto scrub_local = partition_rows(
      mapper,
      ispec.enabled
          ? dedup_rows(protected_rows.empty() ? victims : protected_rows)
          : std::vector<GlobalRowId>{},
      "scrub");
  core::Channels channels;
  channels.reserve(mapper.channels());
  for (ChannelId c = 0; c < mapper.channels(); ++c) {
    auto ch = std::make_unique<core::Channel>(
        env.geometry, env.timing, env.timing_spec, env.disturbance,
        dl::Rng(channel_seed(env.disturbance_seed, c)));
    DefenseSpec dspec = env.fabric.channel_defenses.empty()
                            ? base_defense
                            : env.fabric.channel_defenses[c];
    dspec.seed = channel_seed(dspec.seed, c);
    locked_rows += install_defense(*ch, dspec, protected_local[c]);
    if (ispec.enabled && !scrub_local[c].empty()) {
      seed_scrub_rows(ch->ctrl, scrub_local[c]);
      ch->scrubber = std::make_unique<dl::integrity::DramScrubber>(
          ch->ctrl, scrub_local[c], ispec.config);
    }
    if (env.resilience.enabled() && ch->scrubber != nullptr) {
      ch->retirer = make_retirer(ch->ctrl, env.resilience, *ch->scrubber);
    }
    // Fault injection attaches last, after the scrubber snapshot: the
    // stuck-at assertion in the injector's constructor lands *post*-
    // snapshot, so weak cells read as corruption from the first scrub on.
    if (env.faults.enabled()) {
      dl::faults::FaultSpec fspec = env.faults;
      fspec.seed = channel_seed(fspec.seed, c);
      ch->injector =
          std::make_unique<dl::faults::FaultInjector>(ch->ctrl, fspec);
      if (ch->locker != nullptr) {
        ch->injector->attach_lock_table(&ch->locker->lock_table());
      }
      if (ch->scrubber != nullptr) {
        ch->injector->attach_checksums(&ch->scrubber->checksums());
      }
      ch->ctrl.add_listener(ch->injector.get());
    }
    channels.push_back(std::move(ch));
  }
  return channels;
}

/// Whether round (or cycle) `round` ends with a scrub sweep.
bool scrub_due(const IntegritySpec& ispec, std::uint64_t round) {
  return ispec.enabled && ispec.scrub_interval > 0 &&
         (round + 1) % ispec.scrub_interval == 0;
}

/// One round's per-channel rosters: the fabric-level `tenants` re-seeded
/// for the round (epoch 3, so synthetic streams decorrelate across rounds)
/// and sharded to their owning channels.  With the integrity add-on, every
/// channel also gets a scrub tenant at index tenants.size(): its guarded
/// rows, or an inert placeholder on a channel without any, so every roster
/// (and the merged tenant table) keeps one shape.  It has a zero budget on
/// rounds where no sweep is due.
core::Rosters round_rosters(const dl::dram::FabricMapper& mapper,
                            std::vector<StreamSpec> tenants,
                            std::uint64_t round,
                            const core::Channels& channels,
                            const IntegritySpec& ispec) {
  for (auto& t : tenants) {
    t.seed = dl::substream_seed(t.seed, /*epoch=*/3, round);
  }
  core::Rosters rosters = dl::traffic::shard_tenants(mapper, tenants);
  if (!ispec.enabled) return rosters;
  const bool due = scrub_due(ispec, round);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const auto* scrubber = channels[c]->scrubber.get();
    auto spec = scrubber != nullptr
                    ? StreamSpec::scrub(scrubber->rows(),
                                        scrubber->chunk_bytes(),
                                        due ? scrubber->chunks_per_pass() : 0)
                    : StreamSpec::scrub({0}, mapper.row_bytes(), 0);
    spec.name = "scrub";
    rosters[c].push_back(std::move(spec));
  }
  return rosters;
}

/// Adds what every channel accumulated — DRAM-Locker, scrubber, retirer,
/// injector and refresh stats — to `r` as fabric-wide merges (sums, the
/// earliest first detection, the worst REF slip) and applies the
/// `degraded` rule: a defense degradation ladder engaged, a scrub recovery
/// write was denied, or a spare pool ran dry.  `Result` is
/// HammerCampaignResult or ServeCampaignResult, which name these members
/// alike.
template <typename Result>
void harvest_channels(Result& r, const core::Channels& channels,
                      const DramEnv& env, const IntegritySpec& ispec) {
  using dl::fields::merge;
  std::uint64_t degraded_migrations = 0;
  bool spares_dry = false;
  for (const auto& ch : channels) {
    if (ch->locker != nullptr) merge(r.locker, ch->locker->stats());
    if (ch->row_swap != nullptr) {
      degraded_migrations += ch->row_swap->degraded();
    }
    r.defense_time += ch->ctrl.defense_time();
    if (ch->scrubber != nullptr) {
      merge(r.integrity, ch->scrubber->stats());
      merge(r.integrity_audit, ch->scrubber->audit());
    }
    if (ch->retirer != nullptr) {
      r.resilience_enabled = true;
      merge(r.resilience, ch->retirer->stats());
      spares_dry = spares_dry || ch->retirer->exhausted();
    }
    if (ch->injector != nullptr) merge(r.faults, ch->injector->stats());
    if (const auto* tm = ch->ctrl.timing_model()) {
      merge(r.refresh, tm->refresh_stats());
    }
  }
  r.integrity_enabled = ispec.enabled;
  if (ispec.enabled) r.integrity_config = ispec.config;
  r.faults_enabled = env.faults.enabled();
  r.timed = env.timing_spec.enabled;
  r.degraded = r.locker.degraded_locks > 0 || r.locker.degraded_swaps > 0 ||
               degraded_migrations > 0 ||
               r.integrity.unrecoverable_faults > 0 || spares_dry;
}

}  // namespace

HammerCampaignResult run_one(const HammerCampaign& campaign) {
  DL_REQUIRE(campaign.cycles > 0, "campaign needs at least one cycle");
  const dl::dram::FabricMapper mapper = fabric_mapper(campaign.env);
  const std::uint32_t n = mapper.channels();
  const IntegritySpec& ispec = campaign.defense.integrity;
  const std::vector<GlobalRowId> victims = traffic_victims(campaign);
  // Channel-local victims for flip attribution; partitioning also
  // range-checks them, the burst attack's victim row included.
  const auto victims_local = partition_rows(mapper, victims, "victim");
  HammerCampaignResult r;
  r.name = campaign.name;
  const core::Channels channels =
      build_channels(campaign.env, campaign.defense, mapper,
                     campaign.protected_rows, victims, r.locked_rows);

  // Per-channel attack outcome and traffic totals, merged at the end.
  std::vector<dl::rowhammer::HammerResult> attack(n);
  std::vector<TrafficReport> traffic(n);

  // Budget enforcement: a cycle cap shrinks the loop up front; an ACT cap
  // is checked between cycles (a cycle always finishes once started).
  const std::uint64_t cycle_cap =
      campaign.budget.max_cycles > 0
          ? std::min(campaign.cycles, campaign.budget.max_cycles)
          : campaign.cycles;
  const auto acts_exhausted = [&] {
    if (campaign.budget.max_acts == 0) return false;
    double total = 0.0;
    for (const auto& ch : channels) {
      total += ch->ctrl.counters().value(dl::dram::Counter::kActivates);
    }
    return total >= static_cast<double>(campaign.budget.max_acts);
  };
  // Pre/post TrafficOps address fabric rows; each op routes to the owning
  // channel in declaration order.
  const auto issue_ops = [&](const std::vector<TrafficOp>& ops) {
    std::vector<std::uint8_t> buf;
    for (const TrafficOp& op : ops) {
      DL_REQUIRE(op.row < mapper.total_rows(),
                 "traffic op row exceeds the fabric row space");
      Controller& ctrl = channels[mapper.channel_of(op.row)]->ctrl;
      const GlobalRowId local = mapper.local_row(op.row);
      buf.resize(op.bytes);
      for (std::uint32_t i = 0; i < op.repeat; ++i) {
        ctrl.read(ctrl.mapper().row_base(local), buf, op.can_unlock);
      }
    }
  };

  if (campaign.traffic.enabled()) {
    // Multi-tenant path: the engines replace the attack burst.  Each cycle
    // shards the tenant mix to its owning channels; flips are attributed
    // per channel against the hammer tenants' victim rows (channel-local),
    // and scrub sweeps contend inside the same engine run.
    std::vector<std::unique_ptr<dl::rowhammer::FlipCallbackScope>> scopes;
    scopes.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c) {
      core::Channel& ch = *channels[c];
      dl::rowhammer::HammerResult& a = attack[c];
      const std::vector<GlobalRowId>& local = victims_local[c];
      scopes.push_back(std::make_unique<dl::rowhammer::FlipCallbackScope>(
          ch.disturbance,
          [&ch, &a, &local](const dl::rowhammer::FlipEvent& ev) {
            for (const GlobalRowId v : local) {
              if (ev.victim_row == ch.ctrl.indirection().to_physical(v)) {
                ++a.flips_in_victim;
                return;
              }
            }
            ++a.flips_elsewhere;
          }));
    }
    for (std::uint64_t cycle = 0; cycle < cycle_cap; ++cycle) {
      issue_ops(campaign.pre_traffic);
      core::Rosters rosters = round_rosters(
          mapper, campaign.traffic.tenants, cycle, channels, ispec);
      core::run_round(channels, rosters, campaign.traffic.scheduler,
                      campaign.traffic.admission,
                      campaign.traffic.tenants.size(), traffic);
      issue_ops(campaign.post_traffic);
      ++r.completed_cycles;
      if (acts_exhausted()) break;
    }
  } else {
    // Burst path: the attack runs on the victim's owning channel; scrub
    // sweeps run directly on every guarded channel when due.
    const ChannelId vch = mapper.channel_of(campaign.attack.victim_row);
    const GlobalRowId vlocal = mapper.local_row(campaign.attack.victim_row);
    dl::rowhammer::HammerAttacker attacker(channels[vch]->ctrl,
                                           channels[vch]->disturbance);
    for (std::uint64_t cycle = 0; cycle < cycle_cap; ++cycle) {
      issue_ops(campaign.pre_traffic);
      dl::fields::merge(attack[vch],
                        attacker.attack(vlocal, campaign.attack.pattern,
                                        campaign.attack.act_budget,
                                        campaign.attack.stop_after_flips));
      issue_ops(campaign.post_traffic);
      if (scrub_due(ispec, cycle)) {
        for (const auto& ch : channels) {
          if (ch->scrubber != nullptr) ch->scrubber->scrub_pass();
        }
      }
      ++r.completed_cycles;
      if (acts_exhausted()) break;
    }
  }
  if (r.completed_cycles < campaign.cycles) {
    r.status = CampaignStatus::kTruncated;
  }

  // Merge: scalar stats are fabric-wide sums and elapsed times makespans
  // over channels.  Hammer tenants feed the attack result, so traffic and
  // burst campaigns report uniformly.  Multi-channel fabrics also keep the
  // unmerged per-channel slices.
  r.fabric_channels = n;
  for (std::uint32_t c = 0; c < n; ++c) {
    const core::Channel& ch = *channels[c];
    dl::rowhammer::HammerResult& a = attack[c];
    for (const auto& t : traffic[c].tenants) {
      if (t.kind != dl::traffic::StreamKind::kHammer) continue;
      a.granted_acts += t.hammer_acts;
      a.denied_acts += t.denied;
    }
    a.elapsed += traffic[c].elapsed;
    const Picoseconds makespan = std::max(r.attack.elapsed, a.elapsed);
    dl::fields::merge(r.attack, a);
    r.attack.elapsed = makespan;
    harvest_defense(ch, r);
    core::merge_tenants(r.tenants, traffic[c].tenants);
    const auto rowclones = static_cast<std::uint64_t>(
        ch.ctrl.counters().value(dl::dram::Counter::kRowClones));
    const std::uint64_t flips = ch.disturbance.total_flips();
    r.rowclones += rowclones;
    r.total_flips += flips;
    r.elapsed = std::max(r.elapsed, ch.ctrl.now());
    if (n > 1) {
      r.channels.push_back({.granted_acts = a.granted_acts,
                            .denied_acts = a.denied_acts,
                            .flips_in_victim = a.flips_in_victim,
                            .flips_elsewhere = a.flips_elsewhere,
                            .rowclones = rowclones,
                            .total_flips = flips,
                            .serviced = traffic[c].serviced,
                            .defense_time = ch.ctrl.defense_time(),
                            .elapsed = ch.ctrl.now()});
    }
  }
  harvest_channels(r, channels, campaign.env, ispec);
  return r;
}

HammerCampaignResult run_one_isolated(const HammerCampaign& campaign) {
  try {
    return run_one(campaign);
  } catch (const std::exception& e) {
    HammerCampaignResult r;
    r.name = campaign.name;
    r.status = CampaignStatus::kFailed;
    r.error = e.what();
    return r;
  }
}

std::vector<HammerCampaignResult> run(
    const std::vector<HammerCampaign>& campaigns) {
  std::vector<HammerCampaignResult> results(campaigns.size());
  dl::parallel::parallel_for(
      0, campaigns.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = run_one_isolated(campaigns[i]);
        }
      });
  return results;
}

std::vector<HammerCampaign> expand(const MatrixSpec& spec) {
  DL_REQUIRE(!spec.patterns.empty() && !spec.defenses.empty(),
             "matrix needs at least one pattern and one defense");
  // A parameter sweep lists the same defense cell several times; suffix
  // those cells with their position so names (and report rows) stay
  // unique.  The label distinguishes integrity-composed cells, so
  // {none, none+integrity} sweeps need no suffix.
  std::unordered_map<std::string, std::size_t> label_count;
  for (const DefenseSpec& def : spec.defenses) ++label_count[defense_label(def)];
  std::vector<HammerCampaign> campaigns;
  std::uint64_t index = 0;
  for (std::uint64_t rep = 0; rep < spec.repetitions; ++rep) {
    for (const auto pattern : spec.patterns) {
      for (std::size_t di = 0; di < spec.defenses.size(); ++di) {
        const DefenseSpec& def = spec.defenses[di];
        HammerCampaign c;
        c.name = spec.name_prefix;
        c.name += '/';
        c.name += dl::rowhammer::to_string(pattern);
        c.name += '/';
        const std::string label = defense_label(def);
        c.name += label;
        if (label_count[label] > 1) {
          c.name += '#';
          c.name += std::to_string(di);
        }
        if (spec.repetitions > 1) {
          c.name += "/rep";
          c.name += std::to_string(rep);
        }
        c.env = spec.env;
        c.attack = spec.attack;
        c.attack.pattern = pattern;
        c.defense = def;
        c.protected_rows = spec.protected_rows;
        c.traffic = spec.traffic;
        // Decorrelated per-campaign sub-streams: the disturbance, the
        // defense, and every tenant draw from distinct epochs of the same
        // base seed, keyed by the campaign's position in the matrix.
        c.budget = spec.budget;
        c.env.disturbance_seed = dl::substream_seed(spec.base_seed, 0, index);
        c.defense.seed = dl::substream_seed(spec.base_seed, 1, index);
        c.env.faults.seed = dl::substream_seed(spec.base_seed, 2, index);
        for (std::size_t ti = 0; ti < c.traffic.tenants.size(); ++ti) {
          auto& tenant = c.traffic.tenants[ti];
          tenant.seed = dl::substream_seed(spec.base_seed, 4 + ti, index);
          // The matrix's attack declaration drives the hammer tenants, so
          // the pattern axis and the act_budget knob sweep multi-tenant
          // cells too (act_budget 0 keeps each tenant's declared budget).
          if (tenant.kind == dl::traffic::StreamKind::kHammer) {
            tenant.pattern = pattern;
            tenant.victim_row = spec.attack.victim_row;
            if (spec.attack.act_budget > 0) {
              tenant.requests = spec.attack.act_budget;
            }
          }
        }
        campaigns.push_back(std::move(c));
        ++index;
      }
    }
  }
  return campaigns;
}

// ------------------------------------------------------------ serve runner

namespace {

/// Rejects a chaos schedule that cannot run as declared, before any round.
void validate_chaos(const ChaosSpec& chaos, const DramEnv& env) {
  if (chaos.kill_channel >= 0) {
    DL_REQUIRE(env.fabric.channels >= 2,
               "chaos channel kill needs at least two channels");
    DL_REQUIRE(static_cast<std::uint32_t>(chaos.kill_channel) <
                   env.fabric.channels,
               "chaos.kill_channel out of range");
    DL_REQUIRE(env.fabric.interleave == dl::dram::InterleavePolicy::kRowBlocked,
               "chaos channel kill needs row-blocked interleave (failover "
               "re-pins tenants onto the replica channel)");
    DL_REQUIRE(chaos.restore_at_round == 0 ||
                   chaos.restore_at_round > chaos.kill_at_round,
               "chaos.restore_at_round must be 0 (never) or later than "
               "chaos.kill_at_round");
  }
  if (chaos.storm_rounds > 0) {
    DL_REQUIRE(env.faults.enabled(),
               "chaos fault storm needs env.faults enabled");
    DL_REQUIRE(chaos.period_ramp > 0.0 && chaos.period_ramp <= 1.0,
               "chaos.period_ramp must be in (0, 1]");
    DL_REQUIRE(chaos.min_period_acts >= 1,
               "chaos.min_period_acts must be >= 1");
  }
}

}  // namespace

ServeCampaignResult run_serve(const ServeCampaign& campaign) {
  DL_REQUIRE(campaign.rounds > 0, "serve campaign needs at least one round");
  DL_REQUIRE(campaign.traffic.enabled(),
             "serve campaign needs at least one tenant");
  const dl::dram::FabricMapper mapper = fabric_mapper(campaign.env);
  const std::uint32_t n = mapper.channels();
  const ChaosSpec& chaos = campaign.chaos;
  validate_chaos(chaos, campaign.env);
  const IntegritySpec& ispec = campaign.defense.integrity;
  ServeCampaignResult r;
  r.name = campaign.name;
  r.fabric_channels = n;
  r.per_channel.resize(n);
  const core::Channels channels = build_channels(
      campaign.env, campaign.defense, mapper, campaign.protected_rows,
      hammer_victims(campaign.traffic.tenants), r.locked_rows);

  using dl::resilience::ChannelHealth;
  const bool chaos_on = chaos.enabled();
  const ChannelId kill =
      chaos.kill_channel >= 0 ? static_cast<ChannelId>(chaos.kill_channel) : 0;
  const ChannelId replica =
      chaos.kill_channel >= 0 ? static_cast<ChannelId>((kill + 1) % n) : 0;
  // Failover mirrors: weight readers pinned to the doomed channel get their
  // working set copied onto the replica channel (same channel-local rows)
  // before serving starts.  The copy is setup state — like the scrub-row
  // seeding — not accounted traffic; primary writes are not forwarded, so
  // the mirror models a periodically-synced replica.
  std::vector<std::size_t> failover_tenants;
  if (chaos.kill_channel >= 0) {
    std::vector<std::uint8_t> buf(campaign.env.geometry.row_bytes);
    for (std::size_t i = 0; i < campaign.traffic.tenants.size(); ++i) {
      const auto& t = campaign.traffic.tenants[i];
      if (t.kind != dl::traffic::StreamKind::kWeightReader ||
          t.pin_channel != chaos.kill_channel) {
        continue;
      }
      failover_tenants.push_back(i);
      Controller& src = channels[kill]->ctrl;
      Controller& dst = channels[replica]->ctrl;
      for (std::uint64_t row = 0; row < t.rows; ++row) {
        const GlobalRowId local = mapper.local_row(t.base_row + row);
        src.data().read(src.indirection().to_physical(local), 0, buf);
        dst.data().write(dst.indirection().to_physical(local), 0, buf);
      }
    }
  }

  ChannelHealth& kill_health = channels[kill]->health;
  AvailabilityStats av;
  bool fault_seen = false;
  Picoseconds cum_time = 0;
  std::vector<std::uint64_t> storm_period(n, campaign.env.faults.period_acts);

  for (std::uint64_t round = 0; round < campaign.rounds; ++round) {
    // Chaos mutations run serially between rounds, in channel order, so
    // reports stay byte-identical for any DL_THREADS value.
    if (chaos_on) {
      if (chaos.kill_channel >= 0 && round == chaos.kill_at_round) {
        kill_health = ChannelHealth::kOffline;
        if (!fault_seen) {
          fault_seen = true;
          av.first_fault_at = cum_time;
        }
      }
      if (chaos.kill_channel >= 0 && chaos.restore_at_round > 0 &&
          round == chaos.restore_at_round &&
          kill_health == ChannelHealth::kOffline) {
        const auto* retirer = channels[kill]->retirer.get();
        kill_health = retirer != nullptr && retirer->exhausted()
                          ? ChannelHealth::kDegraded
                          : ChannelHealth::kHealthy;
      }
      if (chaos.storm_rounds > 0 && round >= chaos.storm_start &&
          round < chaos.storm_start + chaos.storm_rounds) {
        // Escalating fault storm: the injector cadence tightens and
        // permanent faults accumulate, per channel in channel order.  With
        // period_ramp in (0, 1] (validate_chaos), converting back only a
        // smaller ramped period keeps the cast in range for any period.
        for (std::uint32_t c = 0; c < n; ++c) {
          auto* inj = channels[c]->injector.get();
          if (inj == nullptr) continue;
          const double ramped =
              static_cast<double>(storm_period[c]) * chaos.period_ramp;
          storm_period[c] = std::max<std::uint64_t>(
              chaos.min_period_acts,
              ramped < static_cast<double>(storm_period[c])
                  ? static_cast<std::uint64_t>(ramped)
                  : storm_period[c]);
          inj->set_period_acts(storm_period[c]);
          if (chaos.stuck_cells_per_round > 0) {
            inj->add_stuck_cells(chaos.stuck_cells_per_round);
          }
        }
        if (!fault_seen) {
          fault_seen = true;
          av.first_fault_at = cum_time;
        }
      }
    }
    const bool offline =
        chaos.kill_channel >= 0 && kill_health == ChannelHealth::kOffline;

    std::vector<StreamSpec> tenants = campaign.traffic.tenants;
    if (offline) {
      // Mirrored weight readers fail over: re-pinned onto the replica at
      // the same channel-local rows (the mirror copied at setup).
      for (const std::size_t i : failover_tenants) {
        auto& t = tenants[i];
        t.base_row = mapper.fabric_row(replica, mapper.local_row(t.base_row));
        t.pin_channel = static_cast<std::int32_t>(replica);
      }
    }
    core::Rosters rosters =
        round_rosters(mapper, std::move(tenants), round, channels, ispec);
    if (chaos_on) {
      // Offered load = every request budget sharded this round (scrub
      // service included); whatever lands on the dead channel is failed
      // outright — the channel serves nothing while offline.
      for (const auto& roster : rosters) {
        for (const auto& spec : roster) av.offered += spec.requests;
      }
      if (offline) {
        for (auto& spec : rosters[kill]) {
          av.failed += spec.requests;
          spec.requests = 0;
        }
      }
    }
    const std::vector<TrafficReport> round_reports = core::run_round(
        channels, rosters, campaign.traffic.scheduler,
        campaign.traffic.admission, campaign.traffic.tenants.size(),
        r.per_channel);
    // Serial post-round bookkeeping: availability conservation
    // (offered == served + shed + failed) and the health ladder.
    Picoseconds round_elapsed = 0;
    for (const auto& rep : round_reports) {
      round_elapsed = std::max(round_elapsed, rep.elapsed);
    }
    cum_time = checked_ps_add(cum_time, round_elapsed);
    if (chaos_on) {
      for (const auto& rep : round_reports) {
        for (const auto& t : rep.tenants) {
          av.served += t.issued;
          av.shed += t.shed;
          av.failed += t.failed;
        }
      }
      if (offline) {
        for (const std::size_t i : failover_tenants) {
          av.redirected += round_reports[replica].tenants[i].issued;
        }
      }
    }
    // Spare-pool exhaustion degrades a channel (never un-degrades).
    bool any_unhealthy = false;
    for (const auto& ch : channels) {
      if (ch->retirer != nullptr && ch->retirer->exhausted() &&
          ch->health == ChannelHealth::kHealthy) {
        ch->health = ChannelHealth::kDegraded;
      }
      any_unhealthy = any_unhealthy || ch->health != ChannelHealth::kHealthy;
    }
    if (any_unhealthy) {
      av.time_in_degraded = checked_ps_add(av.time_in_degraded, round_elapsed);
    }
    if (!fault_seen) {
      // First uncorrectable strike observed by any retirer marks the
      // fault clock for MTTR.
      std::uint64_t strikes = 0;
      for (const auto& ch : channels) {
        if (ch->retirer != nullptr) strikes += ch->retirer->stats().strikes;
      }
      if (strikes > 0) {
        fault_seen = true;
        av.first_fault_at = cum_time;
      }
    }
    if (fault_seen && !av.restored && !any_unhealthy) {
      av.restored = true;
      av.restored_at = cum_time;
      av.mttr = av.restored_at - av.first_fault_at;
    }
    ++r.completed_rounds;
  }

  // Channel-level stats are fabric-wide merges, and any channel left
  // unhealthy also marks the campaign degraded.
  r.merged = core::merge_channels(r.per_channel);
  harvest_channels(r, channels, campaign.env, ispec);
  r.chaos_enabled = chaos_on;
  if (chaos_on) r.availability = av;
  for (const auto& ch : channels) {
    if (r.resilience_enabled || chaos_on) {
      r.channel_health.push_back(ch->health);
    }
    r.degraded = r.degraded || ch->health != ChannelHealth::kHealthy;
  }
  return r;
}

ServeCampaignResult run_serve_isolated(const ServeCampaign& campaign) {
  try {
    return run_serve(campaign);
  } catch (const std::exception& e) {
    ServeCampaignResult r;
    r.name = campaign.name;
    r.status = CampaignStatus::kFailed;
    r.error = e.what();
    return r;
  }
}

// -------------------------------------------------------------- BFA runner

BfaCampaignResult run_bfa(const VictimRef& victim,
                          const BfaCampaign& campaign) {
  victim.qmodel.restore();

  BfaCampaignResult r;
  r.name = campaign.name;
  r.accuracy.push_back(victim.clean_accuracy);

  // The reactive defense snapshots/checksums the freshly restored clean
  // weights; every flip the attacker commits from here on lands in the
  // checksummed view.
  std::unique_ptr<dl::integrity::WeightIntegrity> wi;
  const IntegritySpec& ispec = campaign.integrity;
  if (ispec.enabled) {
    wi = std::make_unique<dl::integrity::WeightIntegrity>(victim.qmodel,
                                                          ispec.config);
    if (ispec.lazy_hooks) wi->attach(victim.model);
  }
  // Victim-side inference on the attacker's sample batch: runs with
  // forward hooks live, so lazy verification triggers here (and the
  // returned accuracy reflects any recovery it performed).
  const auto victim_sample_accuracy = [&] {
    return dl::nn::evaluate_accuracy(victim.model, victim.sample);
  };

  // Wrap the declared gate so every campaign reports attempts/landed
  // uniformly; the wrapped decision sequence is identical to handing the
  // underlying gate (or none) to the attacker directly.
  dl::attack::ResidualFlipGate residual(campaign.gate.residual_p,
                                        dl::Rng(campaign.gate.seed));
  const auto gate = [&](const dl::nn::BitAddress& addr) {
    ++r.gate_attempts;
    bool landed = true;
    switch (campaign.gate.kind) {
      case GateSpec::Kind::kAlwaysLand: landed = true; break;
      case GateSpec::Kind::kDenyAll:    landed = false; break;
      case GateSpec::Kind::kResidual:   landed = residual(addr); break;
    }
    if (landed) ++r.gate_landed;
    return landed;
  };

  if (campaign.mode == BfaCampaign::Mode::kRandom) {
    dl::Rng rng(campaign.random_seed);
    // With integrity, the victim verifies between attack attempts: every
    // verify_interval-th attempt triggers an eager sweep (or, in lazy
    // mode, a victim-side inference that verifies the touched layers), so
    // the recorded per-flip accuracies are post-recovery.
    const auto after_attempt = [&](std::size_t i) {
      if (wi == nullptr) return;
      if (ispec.lazy_hooks) {
        (void)victim_sample_accuracy();
      } else if (ispec.verify_interval > 0 &&
                 (i + 1) % ispec.verify_interval == 0) {
        wi->verify_all();
      }
    };
    const auto res = dl::attack::random_bit_attack(
        victim.model, victim.qmodel, victim.sample, campaign.random_flips,
        rng, gate, wi != nullptr ? after_attempt
                                 : std::function<void(std::size_t)>{});
    for (const double a : res.accuracy_after) r.accuracy.push_back(a);
    r.flips_landed = static_cast<std::size_t>(r.gate_landed);
    r.flips_blocked =
        static_cast<std::size_t>(r.gate_attempts - r.gate_landed);
  } else if (wi != nullptr || campaign.fixed_iterations) {
    dl::attack::ProgressiveBitSearch pbs(victim.model, victim.qmodel,
                                         campaign.bfa);
    for (std::size_t i = 0; i < campaign.bfa.max_iterations; ++i) {
      const auto it = pbs.step(victim.sample, gate);
      if (it.flipped) {
        ++r.flips_landed;
      } else if (it.blocked) {
        ++r.flips_blocked;
      }
      double acc = it.accuracy_after;
      if (wi != nullptr) {
        const bool due = ispec.lazy_hooks ||
                         (ispec.verify_interval > 0 &&
                          (i + 1) % ispec.verify_interval == 0);
        if (due) {
          if (!ispec.lazy_hooks) wi->verify_all();
          // Re-probe through the victim's (hooked) inference path: the
          // curve entry becomes the post-recovery accuracy.
          acc = victim_sample_accuracy();
        }
      }
      r.accuracy.push_back(acc);
      if (!campaign.fixed_iterations) {
        const bool stuck = !it.flipped && !it.blocked;
        if (stuck || acc <= campaign.bfa.stop_below_accuracy) break;
      }
    }
  } else {
    dl::attack::ProgressiveBitSearch pbs(victim.model, victim.qmodel,
                                         campaign.bfa);
    const auto res = pbs.run(victim.sample, gate);
    for (const auto& it : res.iterations) {
      r.accuracy.push_back(it.accuracy_after);
    }
    r.flips_landed = res.flips_landed;
    r.flips_blocked = res.flips_blocked;
  }

  if (wi != nullptr) {
    r.integrity_enabled = true;
    r.integrity_config = ispec.config;
    // Attacker's final view, then the defense's last word: one more full
    // verification (the scrub the victim would run before redeploying) and
    // the post-recovery accuracy it buys back.
    {
      dl::nn::HookSuspensionScope suspend(victim.model);
      r.accuracy_before_recovery =
          dl::nn::evaluate_accuracy(victim.model, victim.sample);
    }
    wi->verify_all();
    r.recovered_accuracy = victim_sample_accuracy();
    r.integrity = wi->stats();
    r.integrity_audit = wi->audit();
  }

  if (victim.test != nullptr) {
    r.test_accuracy_after = dl::nn::evaluate_accuracy(victim.model,
                                                      *victim.test);
  }
  return r;
}

BfaCampaignResult run_bfa_isolated(const VictimRef& victim,
                                   const BfaCampaign& campaign) {
  try {
    return run_bfa(victim, campaign);
  } catch (const std::exception& e) {
    BfaCampaignResult r;
    r.name = campaign.name;
    r.status = CampaignStatus::kFailed;
    r.error = e.what();
    victim.qmodel.restore();  // leave no half-attacked weights behind
    return r;
  }
}

std::vector<BfaCampaignResult> run_bfa(
    const VictimRef& victim, const std::vector<BfaCampaign>& campaigns) {
  std::vector<BfaCampaignResult> results;
  results.reserve(campaigns.size());
  for (const BfaCampaign& c : campaigns) {
    results.push_back(run_bfa_isolated(victim, c));
  }
  victim.qmodel.restore();
  return results;
}

// ----------------------------------------------------------------- reports

namespace {

/// The "integrity" block of every report family: the checksum
/// configuration, the verification and recovery counters (a DRAM
/// scrubber's ScrubStats or the weight-space Stats), the ground-truth audit,
/// and the detection rate derived from them.
template <typename Counters>
dl::json::Value integrity_block(const dl::integrity::Config& config,
                                const Counters& s,
                                const dl::integrity::Audit& audit) {
  auto v = dl::json::Value::object();
  v["scheme"] = dl::integrity::to_string(config.scheme);
  v["group_size"] = config.group_size;
  v["recovery"] = dl::integrity::to_string(config.recovery);
  dl::fields::put_report(v, s);
  dl::fields::put_report(v, audit);
  v["detection_rate"] = dl::integrity::detection_rate(
      s.corrected_bits, s.zeroed_corrupt_bytes, audit);
  return v;
}

/// Appends the opt-in "timing" block: nanosecond-denominated durations and
/// the refresh-schedule outcome.  Emitted only for campaigns that ran the
/// cycle-approximate engine, so untimed reports stay byte-identical.
/// `scrub_bytes` > 0 adds the scrub bandwidth in GB/s.
void put_timing_block(dl::json::Value& v, const dl::dram::RefreshStats& refresh,
                      Picoseconds elapsed, Picoseconds defense_time,
                      std::uint64_t scrub_bytes) {
  auto timing = dl::json::Value::object();
  timing["elapsed_ns"] = to_nanoseconds(elapsed);
  timing["defense_time_ns"] = to_nanoseconds(defense_time);
  timing["defense_overhead_pct"] =
      elapsed > 0
          ? 100.0 * static_cast<double>(defense_time) / static_cast<double>(elapsed)
          : 0.0;
  dl::fields::put_report(timing, refresh);
  if (scrub_bytes > 0) {
    const double secs = to_seconds(elapsed);
    timing["scrub_bandwidth_gb_per_sec"] =
        secs > 0.0 ? static_cast<double>(scrub_bytes) / secs / 1e9 : 0.0;
  }
  v["timing"] = std::move(timing);
}

}  // namespace

dl::json::Value to_json(const HammerCampaignResult& r) {
  auto v = dl::json::Value::object();
  v["name"] = r.name;
  v["status"] = to_string(r.status);
  if (!r.error.empty()) v["error"] = r.error;
  v["completed_cycles"] = r.completed_cycles;
  // Nested objects are built as locals and moved in: a reference returned
  // by operator[] dies on the next sibling insertion.
  v["attack"] = dl::fields::report(r.attack);
  v["tracker"] = dl::fields::report(r.tracker);
  v["dram_locker"] = dl::fields::report(r.locker);
  v["swaps"] = r.swaps;
  v["unswaps"] = r.unswaps;
  v["degraded_migrations"] = r.degraded_migrations;
  v["degraded"] = r.degraded;
  v["rowclones"] = r.rowclones;
  v["total_flips"] = r.total_flips;
  v["locked_rows"] = r.locked_rows;
  v["defense_time_ps"] = r.defense_time;
  v["elapsed_ps"] = r.elapsed;
  if (r.fabric_channels > 1) {
    auto fabric = dl::json::Value::object();
    fabric["channels"] = r.fabric_channels;
    auto per = dl::json::Value::array();
    for (std::size_t c = 0; c < r.channels.size(); ++c) {
      auto ch = dl::json::Value::object();
      ch["channel"] = c;
      dl::fields::put_report(ch, r.channels[c]);
      per.push_back(std::move(ch));
    }
    fabric["per_channel"] = std::move(per);
    v["fabric"] = std::move(fabric);
  }
  if (!r.tenants.empty()) {
    auto tenants = dl::json::Value::array();
    for (const auto& t : r.tenants) {
      tenants.push_back(dl::traffic::to_json(t, r.elapsed));
    }
    v["tenants"] = std::move(tenants);
  }
  if (r.integrity_enabled) {
    auto integrity =
        integrity_block(r.integrity_config, r.integrity, r.integrity_audit);
    const double secs = to_seconds(r.elapsed);
    integrity["scrub_bandwidth_bytes_per_sec"] =
        secs > 0.0 ? static_cast<double>(r.integrity.scrub_read_bytes) / secs
                   : 0.0;
    v["integrity"] = std::move(integrity);
  }
  if (r.faults_enabled) v["faults"] = dl::fields::report(r.faults);
  if (r.timed) {
    put_timing_block(v, r.refresh, r.elapsed, r.defense_time,
                     r.integrity_enabled ? r.integrity.scrub_read_bytes : 0);
  }
  if (r.resilience_enabled) v["resilience"] = dl::fields::report(r.resilience);
  return v;
}

dl::json::Value to_json(const BfaCampaignResult& r) {
  auto v = dl::json::Value::object();
  v["name"] = r.name;
  v["status"] = to_string(r.status);
  if (!r.error.empty()) v["error"] = r.error;
  v["flips_landed"] = r.flips_landed;
  v["flips_blocked"] = r.flips_blocked;
  v["gate_attempts"] = r.gate_attempts;
  v["gate_landed"] = r.gate_landed;
  v["test_accuracy_after"] = r.test_accuracy_after;
  auto curve = dl::json::Value::array();
  for (const double a : r.accuracy) curve.push_back(a);
  v["accuracy"] = std::move(curve);
  if (r.integrity_enabled) {
    auto integrity =
        integrity_block(r.integrity_config, r.integrity, r.integrity_audit);
    integrity["accuracy_before_recovery"] = r.accuracy_before_recovery;
    integrity["recovered_accuracy"] = r.recovered_accuracy;
    v["integrity"] = std::move(integrity);
  }
  return v;
}

dl::json::Value to_json(const ServeCampaignResult& r) {
  auto v = dl::json::Value::object();
  v["name"] = r.name;
  v["status"] = to_string(r.status);
  if (!r.error.empty()) v["error"] = r.error;
  v["fabric_channels"] = r.fabric_channels;
  v["completed_rounds"] = r.completed_rounds;
  v["serviced"] = r.merged.serviced;
  v["elapsed_ps"] = r.merged.elapsed;
  auto tenants = dl::json::Value::array();
  for (const auto& t : r.merged.tenants) {
    tenants.push_back(dl::traffic::to_json(t, r.merged.elapsed));
  }
  v["tenants"] = std::move(tenants);
  auto channels = dl::json::Value::array();
  for (std::size_t c = 0; c < r.per_channel.size(); ++c) {
    const dl::traffic::TrafficReport& rep = r.per_channel[c];
    auto ch = dl::json::Value::object();
    ch["channel"] = c;
    ch["serviced"] = rep.serviced;
    ch["elapsed_ps"] = rep.elapsed;
    if (c < r.channel_health.size()) {
      // Health rung only for resilience/chaos campaigns, so pre-resilience
      // reports stay byte-identical.
      ch["health"] = dl::resilience::to_string(r.channel_health[c]);
    }
    auto ct = dl::json::Value::array();
    for (const auto& t : rep.tenants) {
      ct.push_back(dl::traffic::to_json(t, rep.elapsed));
    }
    ch["tenants"] = std::move(ct);
    channels.push_back(std::move(ch));
  }
  v["channels"] = std::move(channels);
  v["dram_locker"] = dl::fields::report(r.locker);
  v["locked_rows"] = r.locked_rows;
  v["defense_time_ps"] = r.defense_time;
  v["degraded"] = r.degraded;
  if (r.integrity_enabled) {
    v["integrity"] =
        integrity_block(r.integrity_config, r.integrity, r.integrity_audit);
  }
  if (r.faults_enabled) v["faults"] = dl::fields::report(r.faults);
  if (r.timed) {
    put_timing_block(v, r.refresh, r.merged.elapsed, r.defense_time,
                     r.integrity_enabled ? r.integrity.scrub_read_bytes : 0);
  }
  if (r.resilience_enabled) v["resilience"] = dl::fields::report(r.resilience);
  if (r.chaos_enabled) {
    const AvailabilityStats& a = r.availability;
    auto av = dl::json::Value::object();
    av["offered"] = a.offered;
    av["served"] = a.served;
    av["shed"] = a.shed;
    av["failed"] = a.failed;
    av["redirected"] = a.redirected;
    av["availability"] = a.availability();
    av["time_in_degraded_ps"] = a.time_in_degraded;
    av["first_fault_ps"] = a.first_fault_at;
    av["restored"] = a.restored;
    av["restored_ps"] = a.restored_at;
    av["mttr_ps"] = a.mttr;
    v["availability"] = std::move(av);
  }
  return v;
}

dl::json::Value report_json(const std::vector<HammerCampaignResult>& hammer,
                            const std::vector<BfaCampaignResult>& bfa,
                            const std::vector<ServeCampaignResult>& serve) {
  auto doc = dl::json::Value::object();
  auto h = dl::json::Value::array();
  for (const auto& r : hammer) h.push_back(to_json(r));
  doc["hammer_campaigns"] = std::move(h);
  auto b = dl::json::Value::array();
  for (const auto& r : bfa) b.push_back(to_json(r));
  doc["bfa_campaigns"] = std::move(b);
  if (!serve.empty()) {
    auto s = dl::json::Value::array();
    for (const auto& r : serve) s.push_back(to_json(r));
    doc["serve_campaigns"] = std::move(s);
  }
  return doc;
}

}  // namespace dl::scenario
