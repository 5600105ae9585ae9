// Declarative attack × defense campaign engine (the paper's Fig. 8 /
// Table I / Table II experiment matrices as data, not hand-rolled loops).
//
// Two campaign families cover every experiment the benches run:
//
//   HammerCampaign — a RowHammer campaign against a DRAM controller: one
//     hammer pattern + activation budget, one defense (any tracker, a swap
//     defense, DRAM-Locker, or none), optional interleaved legitimate
//     traffic, repeated for `cycles` unlock/attack/filler rounds.  Every
//     campaign owns an independent Controller + DisturbanceModel + defense
//     instance seeded from the spec, so the runner fans campaigns out over
//     dl::parallel with bit-identical results for any DL_THREADS value.
//
//   BfaCampaign — a progressive-bit-search (or random-flip) attack against
//     a trained quantized victim, with the memory substrate abstracted by a
//     gate spec (always-land / deny-all / residual-probability).  Campaigns
//     share one victim model (weights are restored before each campaign),
//     so they run serially; all internal compute still uses the pool.
//
// Either campaign family can additionally enable the *reactive* integrity
// defense (src/integrity, RADAR-style): DefenseSpec::integrity composes
// with every preventive mechanism, so one MatrixSpec sweeps
// {none, DRAM-Locker, integrity-only, DRAM-Locker+integrity} cells
// uniformly.  Hammer campaigns scrub the protected rows through the
// controller (or through a kScrub tenant when multi-tenant traffic is
// enabled); BFA campaigns verify the victim's quantized weights between
// attack iterations (or lazily via inference hooks) and measure the
// recovered accuracy.
//
// Results carry the structured statistics the paper's tables report
// (HammerResult, TrackerStats, DramLocker::Stats, accuracy-under-attack)
// and serialize to JSON via report_json() for CI artifacts; see
// docs/SCENARIO_SCHEMA.md for the full field reference.
//
// Determinism contract: every spec carries explicit seeds, every campaign
// owns its controller/defense/RNG state, and the runner fans campaigns out
// over fixed-size chunks — results (and the serialized reports) are
// byte-identical for any DL_THREADS value and any machine.  Thread
// safety: specs are value types, safe to copy/share; runners synchronize
// internally; a result struct belongs to its caller.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/bfa.hpp"
#include "common/json.hpp"
#include "defense/dram_locker.hpp"
#include "defense/trackers.hpp"
#include "dram/controller.hpp"
#include "dram/fabric.hpp"
#include "faults/faults.hpp"
#include "integrity/checksum.hpp"
#include "integrity/scrubber.hpp"
#include "integrity/weight_integrity.hpp"
#include "nn/model.hpp"
#include "nn/quant.hpp"
#include "resilience/resilience.hpp"
#include "rowhammer/attacker.hpp"
#include "rowhammer/disturbance.hpp"
#include "traffic/engine.hpp"

namespace dl::scenario {

// ------------------------------------------------------------- resilience

/// Terminal state of a campaign run.  Failed and truncated campaigns still
/// produce a result entry (with whatever was harvested before the cut), so
/// one bad cell never takes down a matrix.
enum class CampaignStatus : std::uint8_t {
  kOk,         ///< ran to completion
  kFailed,     ///< threw; result carries the error string, stats are empty
  kTruncated,  ///< stopped early by a BudgetSpec limit
};

[[nodiscard]] const char* to_string(CampaignStatus status);

/// Per-campaign resource limits (0 = unlimited).  A campaign that exceeds
/// a limit is truncated — it keeps everything accumulated so far and
/// reports status "truncated" — rather than running away with the matrix's
/// wall-clock budget.
struct BudgetSpec {
  std::uint64_t max_acts = 0;    ///< stop once total ACTs reach this
  std::uint64_t max_cycles = 0;  ///< run at most this many cycles
};

// ---------------------------------------------------------------- defenses

/// Declarative run-time integrity (RADAR-style) add-on.  Orthogonal to the
/// preventive mechanism selected by DefenseSpec::kind: a reactive
/// detect-and-recover layer that composes with any of them (or with none).
struct IntegritySpec {
  bool enabled = false;
  dl::integrity::Config config;  ///< scheme, group size, recovery policy

  /// Hammer campaigns: run one scrub sweep every N campaign cycles
  /// (0 = never scrub — detection happens only in the end-of-campaign
  /// audit).  With multi-tenant traffic the sweep runs as a kScrub tenant
  /// contending through the FR-FCFS scheduler; otherwise it reads directly
  /// through the controller inside a DefenseScope.
  std::uint64_t scrub_interval = 1;

  /// BFA campaigns: verify the whole quantized model every N attack
  /// iterations (0 = only once, after the attack finishes).
  std::size_t verify_interval = 1;

  /// BFA campaigns: instead of interval verification, attach per-layer
  /// inference hooks (nn::Model::ForwardHook) so the victim verifies each
  /// layer lazily whenever *victim-side* inference consumes it.  The
  /// attacker's own trial evaluations never trigger these hooks.
  bool lazy_hooks = false;
};

/// Declarative defense choice: which mechanism guards the controller and
/// how it is parameterized.  One struct covers every mechanism so campaign
/// matrices can sweep over defenses uniformly; fields irrelevant to the
/// selected kind are ignored.
struct DefenseSpec {
  enum class Kind : std::uint8_t {
    kNone,
    kTrrSampler,
    kCounterPerRow,
    kGraphene,
    kCounterTree,
    kHydra,
    kRowSwap,   ///< RRS; SRS with lazy_unswap
    kShadow,
    kDramLocker,
  };

  Kind kind = Kind::kNone;
  std::uint64_t threshold = 1000;       ///< trackers / swap defenses
  std::uint32_t radius = 2;             ///< victim-refresh radius
  double sample_probability = 0.01;     ///< kTrrSampler
  std::size_t entries = 64;             ///< kGraphene table entries
  std::uint32_t group_rows = 64;        ///< kCounterTree / kHydra
  bool lazy_unswap = false;             ///< kRowSwap: SRS behaviour
  std::uint64_t swap_budget = 0;        ///< kRowSwap migration cap (0 = off)
  dl::defense::DramLockerConfig locker; ///< kDramLocker
  std::uint64_t seed = 2;               ///< defense-private RNG stream
  /// Reactive integrity add-on; composes with any kind (incl. kNone).
  IntegritySpec integrity;

  /// Copy of this spec with the integrity add-on enabled — sweep cells
  /// like `DefenseSpec::dram_locker(cfg, 0).with_integrity(radar)`.
  [[nodiscard]] DefenseSpec with_integrity(const IntegritySpec& spec) const;

  static DefenseSpec none();
  static DefenseSpec trr(double p, std::uint32_t radius, std::uint64_t seed);
  static DefenseSpec counter_per_row(std::uint64_t threshold,
                                     std::uint32_t radius);
  static DefenseSpec graphene(std::uint64_t threshold, std::size_t entries,
                              std::uint32_t radius);
  static DefenseSpec counter_tree(std::uint64_t threshold,
                                  std::uint32_t group_rows,
                                  std::uint32_t radius);
  static DefenseSpec hydra(std::uint64_t threshold, std::uint32_t group_rows,
                           std::uint32_t radius);
  static DefenseSpec row_swap(std::uint64_t threshold, bool lazy_unswap,
                              std::uint64_t seed);
  static DefenseSpec shadow(std::uint64_t threshold, std::uint64_t seed);
  static DefenseSpec dram_locker(const dl::defense::DramLockerConfig& cfg,
                                 std::uint64_t seed);
};

[[nodiscard]] const char* to_string(DefenseSpec::Kind kind);

/// Human label of a defense cell: the kind name plus "+integrity" when the
/// reactive add-on is enabled (used in expanded campaign names).
[[nodiscard]] std::string defense_label(const DefenseSpec& spec);

// ------------------------------------------------------------- environment

/// Channel fabric topology for a campaign.  Every hammer and serve
/// campaign runs on `channels` identical core::Channels (each its own
/// Controller + disturbance + defense + integrity + retirement + fault
/// state) sharing one flat fabric row space under `interleave`; tenant
/// working sets, protected rows, and victim rows in the campaign spec are
/// *fabric* rows and are sharded to their owning channels.
struct FabricSpec {
  std::uint32_t channels = 1;
  dl::dram::InterleavePolicy interleave =
      dl::dram::InterleavePolicy::kRowBlocked;
  /// Per-channel defense overrides; empty = every channel runs the
  /// campaign's declared defense, otherwise size must equal `channels`.
  std::vector<DefenseSpec> channel_defenses;
};

/// The simulated memory system one campaign runs against.
struct DramEnv {
  /// Per-channel geometry (geometry.channels must stay 1; the fabric-wide
  /// channel count lives in fabric.channels).
  dl::dram::Geometry geometry;
  dl::dram::Timing timing = dl::dram::ddr4_2400();
  /// Opt-in cycle-approximate timing engine (per-bank tRC/tRRD/tFAW
  /// bookkeeping, scheduled REF every tREFI).  Off by default: reports stay
  /// byte-identical to the analytic-latency controller.  When enabled the
  /// result carries a "timing" block with nanosecond-denominated fields.
  dl::dram::TimingSpec timing_spec;
  dl::rowhammer::DisturbanceConfig disturbance;
  std::uint64_t disturbance_seed = 1;  ///< victim-bit selection stream
  /// Deterministic fault model (retention/transient/stuck-at data faults,
  /// defense-metadata faults); inactive unless faults.enabled().  expand()
  /// derives the seed from the matrix seed tree (epoch 2).
  dl::faults::FaultSpec faults;
  /// Channel fabric (one channel by default).  Channel 0 keeps the declared
  /// disturbance / defense / fault seeds and channel c > 0 derives its own
  /// via substream epoch 5, so a burst attack on channel 0 replays the
  /// same campaign on any channel count bit-for-bit.
  FabricSpec fabric;
  /// Self-healing row retirement (spare slab per channel, strike policy);
  /// inactive unless resilience.enabled().  Retirement needs the integrity
  /// scrubber (the strike source and re-materialization snapshot), so it
  /// only engages on campaigns with defense.integrity enabled.
  dl::resilience::ResilienceSpec resilience;
};

// ----------------------------------------------------------------- attacker

/// The attacker's declaration: what to hammer and how hard.
struct AttackSpec {
  dl::rowhammer::HammerPattern pattern =
      dl::rowhammer::HammerPattern::kDoubleSided;
  dl::dram::GlobalRowId victim_row = 0;
  std::uint64_t act_budget = 0;        ///< activations per cycle
  std::uint64_t stop_after_flips = 0;  ///< early-stop (0 = never)
};

/// A burst of legitimate traffic interleaved with the attack (drives
/// unlock SWAPs and re-lock ticks in DRAM-Locker campaigns).
struct TrafficOp {
  dl::dram::GlobalRowId row = 0;
  std::uint32_t repeat = 1;
  std::uint32_t bytes = 4;
  bool can_unlock = false;
};

// ------------------------------------------------------------ multi-tenant

/// Declarative multi-tenant traffic mix for a campaign: N tenant streams
/// (benign weight readers, synthetic filler, attacker hammer streams)
/// multiplexed through the per-bank FR-FCFS scheduler.  When enabled, each
/// campaign cycle runs the traffic engine *instead of* the serialized
/// attack burst — attacker tenants are declared as kHammer streams, and
/// their granted/denied activations feed the campaign's attack result.
struct TrafficSpec {
  std::vector<dl::traffic::StreamSpec> tenants;
  dl::traffic::SchedulerConfig scheduler;
  /// Admission control (retry budgets, SLO shedding, deadlines) for the
  /// engines this mix runs on; disabled by default so existing campaigns
  /// stay byte-identical.
  dl::traffic::AdmissionSpec admission;

  [[nodiscard]] bool enabled() const { return !tenants.empty(); }
};

// ---------------------------------------------------------------- campaigns

struct HammerCampaign {
  std::string name;
  DramEnv env;
  DefenseSpec defense;
  AttackSpec attack;
  /// Data rows DRAM-Locker protects before the campaign starts, and the
  /// rows the integrity scrubber guards when defense.integrity is enabled
  /// (tracker/swap defenses are victim-agnostic and ignore this).  When
  /// empty, the integrity scrubber falls back to the campaign's victim
  /// rows.
  std::vector<dl::dram::GlobalRowId> protected_rows;
  /// Workload repetitions; each cycle issues pre_traffic, one attack burst
  /// of `attack.act_budget` activations, then post_traffic.
  std::uint64_t cycles = 1;
  std::vector<TrafficOp> pre_traffic;
  std::vector<TrafficOp> post_traffic;
  /// Multi-tenant contention mix; replaces the attack burst when enabled.
  TrafficSpec traffic;
  /// Resource limits; exceeding one truncates (status = kTruncated).
  BudgetSpec budget;
};

/// Per-channel slice of a campaign's result (multi-channel fabrics only;
/// single-channel campaigns leave the vector empty).
struct ChannelBreakdown {
  std::uint64_t granted_acts = 0;
  std::uint64_t denied_acts = 0;
  std::uint64_t flips_in_victim = 0;
  std::uint64_t flips_elsewhere = 0;
  std::uint64_t rowclones = 0;
  std::uint64_t total_flips = 0;
  std::uint64_t serviced = 0;  ///< traffic requests drained on this channel
  Picoseconds defense_time = 0;
  Picoseconds elapsed = 0;  ///< channel controller clock at the end

  template <typename F>
  static void fields(F&& f) {
    f({"granted_acts"}, &ChannelBreakdown::granted_acts);
    f({"denied_acts"}, &ChannelBreakdown::denied_acts);
    f({"flips_in_victim"}, &ChannelBreakdown::flips_in_victim);
    f({"flips_elsewhere"}, &ChannelBreakdown::flips_elsewhere);
    f({"rowclones"}, &ChannelBreakdown::rowclones);
    f({"total_flips"}, &ChannelBreakdown::total_flips);
    f({"serviced"}, &ChannelBreakdown::serviced);
    f({"defense_time", "defense_time_ps"}, &ChannelBreakdown::defense_time);
    f({"elapsed", "elapsed_ps"}, &ChannelBreakdown::elapsed);
  }
};

struct HammerCampaignResult {
  std::string name;
  CampaignStatus status = CampaignStatus::kOk;
  std::string error;                      ///< what() of a kFailed campaign
  std::uint64_t completed_cycles = 0;
  dl::rowhammer::HammerResult attack;     ///< summed over cycles
  dl::defense::TrackerStats tracker;      ///< tracker defenses only
  dl::defense::DramLocker::Stats locker;  ///< kDramLocker only
  std::uint64_t swaps = 0;                ///< kRowSwap / kShadow migrations
  std::uint64_t unswaps = 0;
  std::uint64_t degraded_migrations = 0;  ///< kRowSwap budget-degraded
  std::uint64_t rowclones = 0;
  std::uint64_t total_flips = 0;          ///< all flips, incl. collateral
  std::size_t locked_rows = 0;            ///< locks installed at setup
  Picoseconds defense_time = 0;
  Picoseconds elapsed = 0;                ///< controller clock at the end
  /// Per-tenant stats, merged over cycles (traffic campaigns only).
  std::vector<dl::traffic::TenantStats> tenants;
  /// Reactive-integrity outcome (defense.integrity campaigns only).
  bool integrity_enabled = false;
  dl::integrity::Config integrity_config;
  dl::integrity::ScrubStats integrity;
  dl::integrity::Audit integrity_audit;   ///< end-of-campaign ground truth
  /// Fault-injection outcome (env.faults campaigns only).
  bool faults_enabled = false;
  dl::faults::FaultStats faults;
  /// Any defense ran in a degraded mode (fallback monitoring, budgeted
  /// swaps downgraded to refreshes, unrecoverable scrub faults, a spare
  /// pool run dry).
  bool degraded = false;
  /// Fabric shape (env.fabric.channels) and per-channel slices (recorded
  /// only when there is more than one channel; the scalar stats above are
  /// fabric-wide merges — sums, except `elapsed` which is the makespan over
  /// channels).
  std::uint32_t fabric_channels = 1;
  std::vector<ChannelBreakdown> channels;
  /// Timing-engine outcome (env.timing_spec.enabled campaigns only).
  /// Refresh stats are fabric-wide: sums, except max_ref_slip_ps which is
  /// the worst slip over channels.
  bool timed = false;
  dl::dram::RefreshStats refresh;
  /// Row-retirement outcome (env.resilience.enabled() campaigns with
  /// integrity only; summed over channels).
  bool resilience_enabled = false;
  dl::resilience::ResilienceStats resilience;
};

/// Runs one campaign; a traffic campaign's per-channel engines fan out
/// over the parallel pool.  Throws on a malformed spec.
[[nodiscard]] HammerCampaignResult run_one(const HammerCampaign& campaign);

/// run_one with error isolation: a throwing campaign yields a result with
/// status = kFailed and the exception message in `error` instead of
/// propagating (so sibling campaigns in a matrix keep running).
[[nodiscard]] HammerCampaignResult run_one_isolated(
    const HammerCampaign& campaign);

/// Runs every campaign, fanning out over the parallel pool (each campaign
/// is self-contained).  Results are ordered like the input and are
/// bit-identical for any DL_THREADS value.  Campaigns are error-isolated:
/// a throwing campaign becomes a kFailed entry, the rest complete.
[[nodiscard]] std::vector<HammerCampaignResult> run(
    const std::vector<HammerCampaign>& campaigns);

// ------------------------------------------------------------ sweep helper

/// Cartesian campaign matrix: {pattern} × {defense} × repetitions, with
/// deterministic per-campaign RNG sub-streams derived from base_seed (so a
/// matrix is reproducible regardless of how it is sliced or parallelized).
/// Note: expand() *overrides* env.disturbance_seed and every defense's
/// seed with the derived sub-streams — base_seed is the only seed knob of
/// a matrix; declare campaigns directly when exact per-campaign seeds
/// matter.
struct MatrixSpec {
  std::string name_prefix = "campaign";
  DramEnv env;
  AttackSpec attack;  ///< pattern field is overridden per matrix cell
  std::vector<dl::rowhammer::HammerPattern> patterns;
  std::vector<DefenseSpec> defenses;
  std::vector<dl::dram::GlobalRowId> protected_rows;
  /// Optional multi-tenant mix applied to every cell.  expand() overrides
  /// tenant seeds with per-campaign sub-streams (like the other seeds) and
  /// drives every kHammer tenant from the matrix's attack declaration
  /// (pattern, victim_row, and — when non-zero — act_budget as the
  /// tenant's request budget), so those axes sweep contention cells too.
  TrafficSpec traffic;
  std::uint64_t repetitions = 1;
  std::uint64_t base_seed = 7;
  /// Per-campaign resource limits applied to every cell.
  BudgetSpec budget;
};

[[nodiscard]] std::vector<HammerCampaign> expand(const MatrixSpec& spec);

// ------------------------------------------------------------- serving mode

/// Chaos-engineering schedule for a serving campaign: escalating fault
/// storms and a mid-run channel kill, driven deterministically between
/// rounds (all mutations happen in the serial merge step, in channel
/// order, so reports stay byte-identical for any DL_THREADS value).
struct ChaosSpec {
  /// Fault storm: starting at round `storm_start`, for `storm_rounds`
  /// rounds, the injector cadence tightens (period *= period_ramp, floored
  /// at min_period_acts) and `stuck_cells_per_round` new permanent faults
  /// accumulate per round.  storm_rounds = 0 disables the storm.
  std::uint64_t storm_start = 0;
  std::uint64_t storm_rounds = 0;
  double period_ramp = 0.5;
  std::uint64_t min_period_acts = 1;
  std::size_t stuck_cells_per_round = 0;

  /// Channel kill: channel `kill_channel` goes offline at the start of
  /// round `kill_at_round` and returns at the start of `restore_at_round`
  /// (0 = never restored).  While offline, mirrored weight-reader tenants
  /// pinned to the channel fail over to replica copies on channel
  /// (kill+1)%N; everything else sharded onto it is failed explicitly.
  std::int32_t kill_channel = -1;
  std::uint64_t kill_at_round = 0;
  std::uint64_t restore_at_round = 0;

  [[nodiscard]] bool enabled() const {
    return storm_rounds > 0 || kill_channel >= 0;
  }
};

/// Availability accounting of a chaos campaign.  Conservation invariant:
/// offered == served + shed + failed (redirected requests are counted in
/// `served` — they completed on the replica — and also tallied here).
struct AvailabilityStats {
  std::uint64_t offered = 0;     ///< request budgets declared, all rounds
  std::uint64_t served = 0;      ///< completed through a controller
  std::uint64_t shed = 0;        ///< admission-shed (SLO breach)
  std::uint64_t failed = 0;      ///< retry-budget failures + offline losses
  std::uint64_t redirected = 0;  ///< served via failover replicas
  /// Protocol time (sum of round makespans) any channel was unhealthy.
  Picoseconds time_in_degraded = 0;
  Picoseconds first_fault_at = 0;  ///< 0 = no fault observed
  Picoseconds restored_at = 0;     ///< 0 = full service never restored
  Picoseconds mttr = 0;            ///< restored_at - first_fault_at
  bool restored = false;

  [[nodiscard]] double availability() const {
    return offered > 0
               ? static_cast<double>(served) / static_cast<double>(offered)
               : 1.0;
  }

  /// The journal's rows; the report block is hand-written, because
  /// availability() sits between the counts and the times.
  template <typename F>
  static void fields(F&& f) {
    f({"offered"}, &AvailabilityStats::offered);
    f({"served"}, &AvailabilityStats::served);
    f({"shed"}, &AvailabilityStats::shed);
    f({"failed"}, &AvailabilityStats::failed);
    f({"redirected"}, &AvailabilityStats::redirected);
    f({"time_in_degraded"}, &AvailabilityStats::time_in_degraded);
    f({"first_fault_at"}, &AvailabilityStats::first_fault_at);
    f({"restored_at"}, &AvailabilityStats::restored_at);
    f({"mttr"}, &AvailabilityStats::mttr);
    f({"restored"}, &AvailabilityStats::restored);
  }
};

/// An always-on serving campaign: a steady-state tenant mix (web front-ends,
/// filler, weight readers, hammer attackers, scrubbers) streamed through the
/// fabric for `rounds` scheduling rounds, with per-tenant, per-channel SLO
/// stats (p50/p99 queue latency, ACT rate, rejected enqueues) in the report.
/// Unlike HammerCampaign there is no burst path — traffic *is* the workload
/// — and the mix runs on every channel of the fabric concurrently.
struct ServeCampaign {
  std::string name;
  DramEnv env;
  DefenseSpec defense;  ///< per-channel overrides via env.fabric
  /// Fabric rows DRAM-Locker protects (and the integrity scrubber guards)
  /// on their owning channels before serving starts.
  std::vector<dl::dram::GlobalRowId> protected_rows;
  /// Tenant working sets / victim rows are fabric rows; shard_tenants()
  /// splits them to their owning channels each round.
  TrafficSpec traffic;
  /// Scheduling rounds; tenant seeds are re-derived per round (epoch 3) so
  /// synthetic streams decorrelate across rounds.
  std::uint64_t rounds = 1;
  /// Chaos schedule (fault storms, channel kill/restore); inactive unless
  /// chaos.enabled().
  ChaosSpec chaos;
};

/// Steady-state serving outcome.  `merged` aggregates tenants element-wise
/// over channels and rounds; `per_channel[c]` keeps channel c's own view
/// (same tenant roster) for SLO attribution.
struct ServeCampaignResult {
  std::string name;
  CampaignStatus status = CampaignStatus::kOk;
  std::string error;  ///< what() of a kFailed campaign
  std::uint32_t fabric_channels = 1;
  std::uint64_t completed_rounds = 0;
  dl::traffic::TrafficReport merged;
  std::vector<dl::traffic::TrafficReport> per_channel;
  dl::defense::DramLocker::Stats locker;  ///< summed over channels
  std::size_t locked_rows = 0;
  Picoseconds defense_time = 0;           ///< summed over channels
  bool integrity_enabled = false;
  dl::integrity::Config integrity_config;
  dl::integrity::ScrubStats integrity;    ///< summed over channels
  dl::integrity::Audit integrity_audit;
  bool faults_enabled = false;
  dl::faults::FaultStats faults;          ///< summed over channels
  bool degraded = false;
  /// Timing-engine outcome (env.timing_spec.enabled campaigns only; see
  /// HammerCampaignResult::refresh for the merge rules).
  bool timed = false;
  dl::dram::RefreshStats refresh;
  /// Row-retirement outcome (env.resilience.enabled() campaigns with
  /// integrity only; summed over channels).
  bool resilience_enabled = false;
  dl::resilience::ResilienceStats resilience;
  /// Final per-channel health rungs (resilience or chaos campaigns only;
  /// empty otherwise).
  std::vector<dl::resilience::ChannelHealth> channel_health;
  /// Chaos availability block (campaign.chaos.enabled() only).
  bool chaos_enabled = false;
  AvailabilityStats availability;
};

/// Runs one serving campaign; channels execute concurrently over the
/// parallel pool with byte-identical reports for any DL_THREADS value.
/// Throws on a malformed spec.
[[nodiscard]] ServeCampaignResult run_serve(const ServeCampaign& campaign);

/// run_serve with error isolation (see run_one_isolated).
[[nodiscard]] ServeCampaignResult run_serve_isolated(
    const ServeCampaign& campaign);

// ------------------------------------------------------------ BFA campaigns

/// Memory-substrate abstraction for BFA campaigns: what happens when the
/// attacker tries to realize a selected bit flip.
struct GateSpec {
  enum class Kind : std::uint8_t {
    kAlwaysLand,  ///< undefended DRAM
    kDenyAll,     ///< error-free DRAM-Locker: every flip denied
    kResidual,    ///< flips land with probability p (erroneous-SWAP leak)
  };
  Kind kind = Kind::kAlwaysLand;
  double residual_p = 0.0;
  std::uint64_t seed = 0;
};

/// A trained victim the BFA campaigns attack.  The engine restores the
/// quantized weights before each campaign and leaves the post-attack state
/// in place afterwards so callers can evaluate held-out accuracy.
struct VictimRef {
  dl::nn::Model& model;
  dl::nn::QuantizedModel& qmodel;
  const dl::nn::Dataset& sample;  ///< attacker's drawn batch
  double clean_accuracy = 0.0;
  const dl::nn::Dataset* test = nullptr;  ///< optional held-out set
};

struct BfaCampaign {
  std::string name;
  enum class Mode : std::uint8_t { kProgressive, kRandom };
  Mode mode = Mode::kProgressive;
  dl::attack::BfaConfig bfa;       ///< kProgressive parameters
  std::size_t random_flips = 0;    ///< kRandom: flip count
  std::uint64_t random_seed = 99;  ///< kRandom: bit-selection stream
  GateSpec gate;
  /// kProgressive: step exactly bfa.max_iterations times with no early
  /// stop (per-iteration accuracy curves); default uses the attacker's
  /// own stopping rule (stuck / stop_below_accuracy).
  bool fixed_iterations = false;
  /// Reactive weight-integrity defense guarding the victim (composable
  /// with any gate, so "DRAM-Locker + RADAR" is gate=kDenyAll + this).
  IntegritySpec integrity;
};

struct BfaCampaignResult {
  std::string name;
  CampaignStatus status = CampaignStatus::kOk;
  std::string error;  ///< what() of a kFailed campaign
  /// accuracy[0] is the clean accuracy; accuracy[i] the sample-batch
  /// accuracy after iteration i.  With integrity enabled, entries at
  /// verify points reflect the victim's *post-recovery* state.
  std::vector<double> accuracy;
  std::size_t flips_landed = 0;
  std::size_t flips_blocked = 0;
  std::uint64_t gate_attempts = 0;  ///< flips offered to a blocking gate
  std::uint64_t gate_landed = 0;    ///< flips a kResidual gate let through
  double test_accuracy_after = 0.0; ///< held-out accuracy (if test given;
                                    ///< post-recovery when integrity is on)
  /// Reactive-integrity outcome (campaign.integrity enabled only).
  bool integrity_enabled = false;
  dl::integrity::Config integrity_config;
  dl::integrity::Stats integrity;
  dl::integrity::Audit integrity_audit;   ///< after the final recovery
  double accuracy_before_recovery = 0.0;  ///< sample accuracy pre-recovery
  double recovered_accuracy = 0.0;        ///< sample accuracy post-recovery
};

/// Runs one BFA campaign.  Restores the victim's weights first; the model
/// is left in its post-attack state on return.
[[nodiscard]] BfaCampaignResult run_bfa(const VictimRef& victim,
                                        const BfaCampaign& campaign);

/// run_bfa with error isolation (see run_one_isolated).  Restores the
/// victim's weights after a failure so the next campaign starts clean.
[[nodiscard]] BfaCampaignResult run_bfa_isolated(const VictimRef& victim,
                                                 const BfaCampaign& campaign);

/// Runs the campaigns in order against the shared victim, restoring the
/// weights between campaigns and after the last one.  Campaigns run
/// serially (they share the victim's mutable weights); the compute inside
/// each — GEMM, gradient passes, candidate ranking — still fans out over
/// the pool, and results stay bit-identical for any DL_THREADS value.
[[nodiscard]] std::vector<BfaCampaignResult> run_bfa(
    const VictimRef& victim, const std::vector<BfaCampaign>& campaigns);

// ----------------------------------------------------------------- reports

[[nodiscard]] dl::json::Value to_json(const HammerCampaignResult& r);
[[nodiscard]] dl::json::Value to_json(const BfaCampaignResult& r);
[[nodiscard]] dl::json::Value to_json(const ServeCampaignResult& r);

/// {"hammer_campaigns": [...], "bfa_campaigns": [...]} plus
/// "serve_campaigns" when any are given — either vector may be empty.
[[nodiscard]] dl::json::Value report_json(
    const std::vector<HammerCampaignResult>& hammer,
    const std::vector<BfaCampaignResult>& bfa = {},
    const std::vector<ServeCampaignResult>& serve = {});

}  // namespace dl::scenario
