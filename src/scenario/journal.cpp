#include "scenario/journal.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace dl::scenario {

namespace {

using dl::json::Value;

// Doubles round-trip through C99 hexfloats: "%a" prints the exact mantissa
// bits and strtod restores them, so a replayed BFA accuracy curve emits the
// same "%.17g" text in the final report as the original run.
std::string encode_double(double d) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", d);
  return buf;
}

double decode_double(const std::string& s) {
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  DL_REQUIRE(end == s.c_str() + s.size() && !s.empty(),
             "journal: malformed hexfloat '" + s + "'");
  return d;
}

/// Decodes an enum journaled as its integer code.  A code that `to_string`
/// does not name throws, naming the field, so the loader skips the line
/// and the campaign re-runs instead of reporting "?".
template <typename Enum>
Enum enum_from(const Value& v, const char* field) {
  const std::uint64_t code = v.as_u64();
  if (code <= std::numeric_limits<std::underlying_type_t<Enum>>::max()) {
    const auto e = static_cast<Enum>(code);
    if (std::strcmp(to_string(e), "?") != 0) return e;
  }
  throw dl::Error(std::string("journal: unknown ") + field + " code " +
                  std::to_string(code));
}

CampaignStatus status_from(const std::string& s) {
  if (s == "ok") return CampaignStatus::kOk;
  if (s == "failed") return CampaignStatus::kFailed;
  if (s == "truncated") return CampaignStatus::kTruncated;
  throw dl::Error("journal: unknown campaign status '" + s + "'");
}

Value integrity_config_to_journal(const dl::integrity::Config& c) {
  auto v = Value::object();
  v["scheme"] = static_cast<std::uint8_t>(c.scheme);
  v["group_size"] = c.group_size;
  v["recovery"] = static_cast<std::uint8_t>(c.recovery);
  return v;
}

dl::integrity::Config integrity_config_from(const Value& v) {
  dl::integrity::Config c;
  c.scheme = enum_from<dl::integrity::Scheme>(v.at("scheme"), "scheme");
  c.group_size = static_cast<std::uint32_t>(v.at("group_size").as_u64());
  c.recovery =
      enum_from<dl::integrity::Recovery>(v.at("recovery"), "recovery");
  return c;
}

Value tenant_to_journal(const dl::traffic::TenantStats& t) {
  auto tv = Value::object();
  tv["name"] = t.name;
  tv["kind"] = static_cast<std::uint8_t>(t.kind);
  tv["issued"] = t.issued;
  tv["granted"] = t.granted;
  tv["denied"] = t.denied;
  tv["rejected_enqueues"] = t.rejected_enqueues;
  tv["reads"] = t.reads;
  tv["writes"] = t.writes;
  tv["hammer_acts"] = t.hammer_acts;
  tv["row_hits"] = t.row_hits;
  tv["data_bytes"] = t.data_bytes;
  tv["service_time"] = t.service_time;
  tv["admission"] = t.admission;
  tv["retried"] = t.retried;
  tv["shed"] = t.shed;
  tv["failed"] = t.failed;
  tv["deadline_misses"] = t.deadline_misses;
  auto bins = Value::array();
  for (const auto& b : t.queue_latency.bins()) {
    bins.push_back(b.value);
    bins.push_back(b.count);
  }
  tv["queue_latency_bins"] = std::move(bins);
  return tv;
}

/// A tenant's latency histogram: a flat [value, count, ...] bin list under
/// "queue_latency_bins", or, on lines written before the histogram, the
/// raw samples under "queue_latency", folded here.  A malformed bin list
/// throws, so the line is skipped and its campaign re-runs.
dl::traffic::LatencyHistogram latency_from(const Value& tv) {
  using dl::traffic::LatencyHistogram;
  if (const Value* flat = tv.find("queue_latency_bins")) {
    DL_REQUIRE(flat->is_array() && flat->size() % 2 == 0,
               "journal: queue_latency_bins must be [value, count, ...]");
    std::vector<LatencyHistogram::Bin> bins(flat->size() / 2);
    for (std::size_t j = 0; j < bins.size(); ++j) {
      bins[j] = {flat->item(2 * j).as_i64(), flat->item(2 * j + 1).as_u64()};
    }
    return LatencyHistogram::from_bins(std::move(bins));
  }
  const Value& raw = tv.at("queue_latency");
  std::vector<Picoseconds> samples(raw.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    samples[j] = raw.item(j).as_i64();
  }
  return LatencyHistogram::fold(std::move(samples));
}

dl::traffic::TenantStats tenant_from_journal(const Value& tv) {
  dl::traffic::TenantStats t;
  t.name = tv.at("name").as_string();
  t.kind = enum_from<dl::traffic::StreamKind>(tv.at("kind"), "kind");
  t.issued = tv.at("issued").as_u64();
  t.granted = tv.at("granted").as_u64();
  t.denied = tv.at("denied").as_u64();
  t.rejected_enqueues = tv.at("rejected_enqueues").as_u64();
  t.reads = tv.at("reads").as_u64();
  t.writes = tv.at("writes").as_u64();
  t.hammer_acts = tv.at("hammer_acts").as_u64();
  t.row_hits = tv.at("row_hits").as_u64();
  t.data_bytes = tv.at("data_bytes").as_u64();
  t.service_time = tv.at("service_time").as_i64();
  t.admission = tv.at("admission").as_bool();
  t.retried = tv.at("retried").as_u64();
  t.shed = tv.at("shed").as_u64();
  t.failed = tv.at("failed").as_u64();
  t.deadline_misses = tv.at("deadline_misses").as_u64();
  t.queue_latency = latency_from(tv);
  return t;
}

Value audit_to_journal(const dl::integrity::Audit& a) {
  auto v = Value::object();
  v["corrupt_bytes"] = a.corrupt_bytes;
  v["missed_bytes"] = a.missed_bytes;
  return v;
}

dl::integrity::Audit audit_from(const Value& v) {
  dl::integrity::Audit a;
  a.corrupt_bytes = v.at("corrupt_bytes").as_u64();
  a.missed_bytes = v.at("missed_bytes").as_u64();
  return a;
}

Value locker_to_journal(const dl::defense::DramLocker::Stats& s) {
  auto v = Value::object();
  v["rw_instructions"] = s.rw_instructions;
  v["denied"] = s.denied;
  v["unlock_swaps"] = s.unlock_swaps;
  v["relocks"] = s.relocks;
  v["swap_copy_errors"] = s.swap_copy_errors;
  v["pool_exhausted_denials"] = s.pool_exhausted_denials;
  v["swap_budget_denials"] = s.swap_budget_denials;
  v["degraded_locks"] = s.degraded_locks;
  v["degraded_swaps"] = s.degraded_swaps;
  v["fallback_refreshes"] = s.fallback_refreshes;
  return v;
}

dl::defense::DramLocker::Stats locker_from(const Value& v) {
  dl::defense::DramLocker::Stats s;
  s.rw_instructions = v.at("rw_instructions").as_u64();
  s.denied = v.at("denied").as_u64();
  s.unlock_swaps = v.at("unlock_swaps").as_u64();
  s.relocks = v.at("relocks").as_u64();
  s.swap_copy_errors = v.at("swap_copy_errors").as_u64();
  s.pool_exhausted_denials = v.at("pool_exhausted_denials").as_u64();
  s.swap_budget_denials = v.at("swap_budget_denials").as_u64();
  s.degraded_locks = v.at("degraded_locks").as_u64();
  s.degraded_swaps = v.at("degraded_swaps").as_u64();
  s.fallback_refreshes = v.at("fallback_refreshes").as_u64();
  return s;
}

Value scrub_to_journal(const dl::integrity::ScrubStats& s) {
  auto v = Value::object();
  v["passes"] = s.passes;
  v["scrub_reads"] = s.scrub_reads;
  v["scrub_read_bytes"] = s.scrub_read_bytes;
  v["denied_accesses"] = s.denied_accesses;
  v["correction_writes"] = s.correction_writes;
  v["verified_groups"] = s.verified_groups;
  v["detections"] = s.detections;
  v["corrected_bits"] = s.corrected_bits;
  v["zeroed_groups"] = s.zeroed_groups;
  v["zeroed_corrupt_bytes"] = s.zeroed_corrupt_bytes;
  v["checksum_repairs"] = s.checksum_repairs;
  v["uncorrectable"] = s.uncorrectable;
  v["unrecoverable_faults"] = s.unrecoverable_faults;
  v["first_detection_at"] = s.first_detection_at;
  return v;
}

dl::integrity::ScrubStats scrub_from(const Value& v) {
  dl::integrity::ScrubStats s;
  s.passes = v.at("passes").as_u64();
  s.scrub_reads = v.at("scrub_reads").as_u64();
  s.scrub_read_bytes = v.at("scrub_read_bytes").as_u64();
  s.denied_accesses = v.at("denied_accesses").as_u64();
  s.correction_writes = v.at("correction_writes").as_u64();
  s.verified_groups = v.at("verified_groups").as_u64();
  s.detections = v.at("detections").as_u64();
  s.corrected_bits = v.at("corrected_bits").as_u64();
  s.zeroed_groups = v.at("zeroed_groups").as_u64();
  s.zeroed_corrupt_bytes = v.at("zeroed_corrupt_bytes").as_u64();
  s.checksum_repairs = v.at("checksum_repairs").as_u64();
  s.uncorrectable = v.at("uncorrectable").as_u64();
  s.unrecoverable_faults = v.at("unrecoverable_faults").as_u64();
  s.first_detection_at = v.at("first_detection_at").as_i64();
  return s;
}

Value faults_to_journal(const dl::faults::FaultStats& s) {
  auto v = Value::object();
  v["events"] = s.events;
  v["retention_faults"] = s.retention_faults;
  v["transient_faults"] = s.transient_faults;
  v["stuck_cells"] = s.stuck_cells;
  v["stuck_overrides"] = s.stuck_overrides;
  v["lock_evictions"] = s.lock_evictions;
  v["remap_faults"] = s.remap_faults;
  v["checksum_faults"] = s.checksum_faults;
  return v;
}

dl::faults::FaultStats faults_from(const Value& v) {
  dl::faults::FaultStats s;
  s.events = v.at("events").as_u64();
  s.retention_faults = v.at("retention_faults").as_u64();
  s.transient_faults = v.at("transient_faults").as_u64();
  s.stuck_cells = v.at("stuck_cells").as_u64();
  s.stuck_overrides = v.at("stuck_overrides").as_u64();
  s.lock_evictions = v.at("lock_evictions").as_u64();
  s.remap_faults = v.at("remap_faults").as_u64();
  s.checksum_faults = v.at("checksum_faults").as_u64();
  return s;
}

Value refresh_to_journal(const dl::dram::RefreshStats& s) {
  auto v = Value::object();
  v["refs_issued"] = s.refs_issued;
  v["ref_busy_ps"] = s.ref_busy_ps;
  v["max_ref_slip_ps"] = s.max_ref_slip_ps;
  return v;
}

dl::dram::RefreshStats refresh_from(const Value& v) {
  dl::dram::RefreshStats s;
  s.refs_issued = v.at("refs_issued").as_u64();
  s.ref_busy_ps = v.at("ref_busy_ps").as_i64();
  s.max_ref_slip_ps = v.at("max_ref_slip_ps").as_i64();
  return s;
}

Value resilience_to_journal(const dl::resilience::ResilienceStats& s) {
  auto v = Value::object();
  v["strikes"] = s.strikes;
  v["retired_rows"] = s.retired_rows;
  v["spares_total"] = s.spares_total;
  v["spares_remaining"] = s.spares_remaining;
  v["remap_reads"] = s.remap_reads;
  v["rematerialized_bytes"] = s.rematerialized_bytes;
  v["retires_denied"] = s.retires_denied;
  return v;
}

dl::resilience::ResilienceStats resilience_from(const Value& v) {
  dl::resilience::ResilienceStats s;
  s.strikes = v.at("strikes").as_u64();
  s.retired_rows = v.at("retired_rows").as_u64();
  s.spares_total = v.at("spares_total").as_u64();
  s.spares_remaining = v.at("spares_remaining").as_u64();
  s.remap_reads = v.at("remap_reads").as_u64();
  s.rematerialized_bytes = v.at("rematerialized_bytes").as_u64();
  s.retires_denied = v.at("retires_denied").as_u64();
  return s;
}

/// The stack-level stats hammer and serve lines both carry, in the same
/// key order: integrity, faults, degraded, refresh and resilience, each
/// optional block behind its enabled flag.  `Result` is
/// HammerCampaignResult or ServeCampaignResult, which name these members
/// alike.
template <typename Result>
void stack_stats_to_journal(Value& v, const Result& r) {
  v["integrity_enabled"] = r.integrity_enabled;
  if (r.integrity_enabled) {
    v["integrity_config"] = integrity_config_to_journal(r.integrity_config);
    v["integrity"] = scrub_to_journal(r.integrity);
    v["integrity_audit"] = audit_to_journal(r.integrity_audit);
  }
  v["faults_enabled"] = r.faults_enabled;
  if (r.faults_enabled) v["faults"] = faults_to_journal(r.faults);
  v["degraded"] = r.degraded;
  v["timed"] = r.timed;
  if (r.timed) v["refresh"] = refresh_to_journal(r.refresh);
  v["resilience_enabled"] = r.resilience_enabled;
  if (r.resilience_enabled) {
    v["resilience"] = resilience_to_journal(r.resilience);
  }
}

template <typename Result>
void stack_stats_from_journal(const Value& v, Result& r) {
  r.integrity_enabled = v.at("integrity_enabled").as_bool();
  if (r.integrity_enabled) {
    r.integrity_config = integrity_config_from(v.at("integrity_config"));
    r.integrity = scrub_from(v.at("integrity"));
    r.integrity_audit = audit_from(v.at("integrity_audit"));
  }
  r.faults_enabled = v.at("faults_enabled").as_bool();
  if (r.faults_enabled) r.faults = faults_from(v.at("faults"));
  r.degraded = v.at("degraded").as_bool();
  r.timed = v.at("timed").as_bool();
  if (r.timed) r.refresh = refresh_from(v.at("refresh"));
  r.resilience_enabled = v.at("resilience_enabled").as_bool();
  if (r.resilience_enabled) {
    r.resilience = resilience_from(v.at("resilience"));
  }
}

Value traffic_report_to_journal(const dl::traffic::TrafficReport& rep) {
  auto v = Value::object();
  v["serviced"] = rep.serviced;
  v["elapsed"] = rep.elapsed;
  auto tenants = Value::array();
  for (const auto& t : rep.tenants) tenants.push_back(tenant_to_journal(t));
  v["tenants"] = std::move(tenants);
  return v;
}

dl::traffic::TrafficReport traffic_report_from(const Value& v) {
  dl::traffic::TrafficReport rep;
  rep.serviced = v.at("serviced").as_u64();
  rep.elapsed = v.at("elapsed").as_i64();
  const Value& tenants = v.at("tenants");
  rep.tenants.reserve(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    rep.tenants.push_back(tenant_from_journal(tenants.item(i)));
  }
  return rep;
}

Value hammer_to_journal(const HammerCampaignResult& r) {
  auto v = Value::object();
  v["kind"] = "hammer";
  v["name"] = r.name;
  v["status"] = to_string(r.status);
  v["error"] = r.error;
  v["completed_cycles"] = r.completed_cycles;
  auto attack = Value::object();
  attack["granted_acts"] = r.attack.granted_acts;
  attack["denied_acts"] = r.attack.denied_acts;
  attack["flips_in_victim"] = r.attack.flips_in_victim;
  attack["flips_elsewhere"] = r.attack.flips_elsewhere;
  attack["elapsed"] = r.attack.elapsed;
  v["attack"] = std::move(attack);
  auto tracker = Value::object();
  tracker["observed_acts"] = r.tracker.observed_acts;
  tracker["mitigations"] = r.tracker.mitigations;
  tracker["victim_refreshes"] = r.tracker.victim_refreshes;
  v["tracker"] = std::move(tracker);
  v["locker"] = locker_to_journal(r.locker);
  v["swaps"] = r.swaps;
  v["unswaps"] = r.unswaps;
  v["degraded_migrations"] = r.degraded_migrations;
  v["rowclones"] = r.rowclones;
  v["total_flips"] = r.total_flips;
  v["locked_rows"] = r.locked_rows;
  v["defense_time"] = r.defense_time;
  v["elapsed"] = r.elapsed;
  auto tenants = Value::array();
  for (const auto& t : r.tenants) tenants.push_back(tenant_to_journal(t));
  v["tenants"] = std::move(tenants);
  stack_stats_to_journal(v, r);
  v["fabric_channels"] = r.fabric_channels;
  auto channels = Value::array();
  for (const ChannelBreakdown& cb : r.channels) {
    auto cv = Value::object();
    cv["granted_acts"] = cb.granted_acts;
    cv["denied_acts"] = cb.denied_acts;
    cv["flips_in_victim"] = cb.flips_in_victim;
    cv["flips_elsewhere"] = cb.flips_elsewhere;
    cv["rowclones"] = cb.rowclones;
    cv["total_flips"] = cb.total_flips;
    cv["serviced"] = cb.serviced;
    cv["defense_time"] = cb.defense_time;
    cv["elapsed"] = cb.elapsed;
    channels.push_back(std::move(cv));
  }
  v["channels"] = std::move(channels);
  return v;
}

HammerCampaignResult hammer_from_journal(const Value& v) {
  HammerCampaignResult r;
  r.name = v.at("name").as_string();
  r.status = status_from(v.at("status").as_string());
  r.error = v.at("error").as_string();
  r.completed_cycles = v.at("completed_cycles").as_u64();
  const Value& attack = v.at("attack");
  r.attack.granted_acts = attack.at("granted_acts").as_u64();
  r.attack.denied_acts = attack.at("denied_acts").as_u64();
  r.attack.flips_in_victim = attack.at("flips_in_victim").as_u64();
  r.attack.flips_elsewhere = attack.at("flips_elsewhere").as_u64();
  r.attack.elapsed = attack.at("elapsed").as_i64();
  const Value& tracker = v.at("tracker");
  r.tracker.observed_acts = tracker.at("observed_acts").as_u64();
  r.tracker.mitigations = tracker.at("mitigations").as_u64();
  r.tracker.victim_refreshes = tracker.at("victim_refreshes").as_u64();
  r.locker = locker_from(v.at("locker"));
  r.swaps = v.at("swaps").as_u64();
  r.unswaps = v.at("unswaps").as_u64();
  r.degraded_migrations = v.at("degraded_migrations").as_u64();
  r.rowclones = v.at("rowclones").as_u64();
  r.total_flips = v.at("total_flips").as_u64();
  r.locked_rows = static_cast<std::size_t>(v.at("locked_rows").as_u64());
  r.defense_time = v.at("defense_time").as_i64();
  r.elapsed = v.at("elapsed").as_i64();
  const Value& tenants = v.at("tenants");
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    r.tenants.push_back(tenant_from_journal(tenants.item(i)));
  }
  stack_stats_from_journal(v, r);
  r.fabric_channels =
      static_cast<std::uint32_t>(v.at("fabric_channels").as_u64());
  const Value& channels = v.at("channels");
  r.channels.reserve(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const Value& cv = channels.item(i);
    ChannelBreakdown cb;
    cb.granted_acts = cv.at("granted_acts").as_u64();
    cb.denied_acts = cv.at("denied_acts").as_u64();
    cb.flips_in_victim = cv.at("flips_in_victim").as_u64();
    cb.flips_elsewhere = cv.at("flips_elsewhere").as_u64();
    cb.rowclones = cv.at("rowclones").as_u64();
    cb.total_flips = cv.at("total_flips").as_u64();
    cb.serviced = cv.at("serviced").as_u64();
    cb.defense_time = cv.at("defense_time").as_i64();
    cb.elapsed = cv.at("elapsed").as_i64();
    r.channels.push_back(cb);
  }
  return r;
}

Value bfa_to_journal(const BfaCampaignResult& r) {
  auto v = Value::object();
  v["kind"] = "bfa";
  v["name"] = r.name;
  v["status"] = to_string(r.status);
  v["error"] = r.error;
  auto curve = Value::array();
  for (const double a : r.accuracy) curve.push_back(encode_double(a));
  v["accuracy"] = std::move(curve);
  v["flips_landed"] = r.flips_landed;
  v["flips_blocked"] = r.flips_blocked;
  v["gate_attempts"] = r.gate_attempts;
  v["gate_landed"] = r.gate_landed;
  v["test_accuracy_after"] = encode_double(r.test_accuracy_after);
  v["integrity_enabled"] = r.integrity_enabled;
  if (r.integrity_enabled) {
    v["integrity_config"] = integrity_config_to_journal(r.integrity_config);
    auto s = Value::object();
    s["verified_groups"] = r.integrity.verified_groups;
    s["detections"] = r.integrity.detections;
    s["corrected_bits"] = r.integrity.corrected_bits;
    s["zeroed_groups"] = r.integrity.zeroed_groups;
    s["zeroed_corrupt_bytes"] = r.integrity.zeroed_corrupt_bytes;
    s["checksum_repairs"] = r.integrity.checksum_repairs;
    s["uncorrectable"] = r.integrity.uncorrectable;
    v["integrity"] = std::move(s);
    v["integrity_audit"] = audit_to_journal(r.integrity_audit);
    v["accuracy_before_recovery"] = encode_double(r.accuracy_before_recovery);
    v["recovered_accuracy"] = encode_double(r.recovered_accuracy);
  }
  return v;
}

BfaCampaignResult bfa_from_journal(const Value& v) {
  BfaCampaignResult r;
  r.name = v.at("name").as_string();
  r.status = status_from(v.at("status").as_string());
  r.error = v.at("error").as_string();
  const Value& curve = v.at("accuracy");
  r.accuracy.reserve(curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    r.accuracy.push_back(decode_double(curve.item(i).as_string()));
  }
  r.flips_landed = static_cast<std::size_t>(v.at("flips_landed").as_u64());
  r.flips_blocked = static_cast<std::size_t>(v.at("flips_blocked").as_u64());
  r.gate_attempts = v.at("gate_attempts").as_u64();
  r.gate_landed = v.at("gate_landed").as_u64();
  r.test_accuracy_after = decode_double(v.at("test_accuracy_after").as_string());
  r.integrity_enabled = v.at("integrity_enabled").as_bool();
  if (r.integrity_enabled) {
    r.integrity_config = integrity_config_from(v.at("integrity_config"));
    const Value& s = v.at("integrity");
    r.integrity.verified_groups = s.at("verified_groups").as_u64();
    r.integrity.detections = s.at("detections").as_u64();
    r.integrity.corrected_bits = s.at("corrected_bits").as_u64();
    r.integrity.zeroed_groups = s.at("zeroed_groups").as_u64();
    r.integrity.zeroed_corrupt_bytes = s.at("zeroed_corrupt_bytes").as_u64();
    r.integrity.checksum_repairs = s.at("checksum_repairs").as_u64();
    r.integrity.uncorrectable = s.at("uncorrectable").as_u64();
    r.integrity_audit = audit_from(v.at("integrity_audit"));
    r.accuracy_before_recovery =
        decode_double(v.at("accuracy_before_recovery").as_string());
    r.recovered_accuracy =
        decode_double(v.at("recovered_accuracy").as_string());
  }
  return r;
}

Value serve_to_journal(const ServeCampaignResult& r) {
  auto v = Value::object();
  v["kind"] = "serve";
  v["name"] = r.name;
  v["status"] = to_string(r.status);
  v["error"] = r.error;
  v["fabric_channels"] = r.fabric_channels;
  v["completed_rounds"] = r.completed_rounds;
  v["merged"] = traffic_report_to_journal(r.merged);
  auto per_channel = Value::array();
  for (const auto& rep : r.per_channel) {
    per_channel.push_back(traffic_report_to_journal(rep));
  }
  v["per_channel"] = std::move(per_channel);
  v["locker"] = locker_to_journal(r.locker);
  v["locked_rows"] = r.locked_rows;
  v["defense_time"] = r.defense_time;
  stack_stats_to_journal(v, r);
  auto health = Value::array();
  for (const dl::resilience::ChannelHealth h : r.channel_health) {
    health.push_back(static_cast<std::uint8_t>(h));
  }
  v["channel_health"] = std::move(health);
  v["chaos_enabled"] = r.chaos_enabled;
  if (r.chaos_enabled) {
    auto av = Value::object();
    av["offered"] = r.availability.offered;
    av["served"] = r.availability.served;
    av["shed"] = r.availability.shed;
    av["failed"] = r.availability.failed;
    av["redirected"] = r.availability.redirected;
    av["time_in_degraded"] = r.availability.time_in_degraded;
    av["first_fault_at"] = r.availability.first_fault_at;
    av["restored_at"] = r.availability.restored_at;
    av["mttr"] = r.availability.mttr;
    av["restored"] = r.availability.restored;
    v["availability"] = std::move(av);
  }
  return v;
}

ServeCampaignResult serve_from_journal(const Value& v) {
  ServeCampaignResult r;
  r.name = v.at("name").as_string();
  r.status = status_from(v.at("status").as_string());
  r.error = v.at("error").as_string();
  r.fabric_channels =
      static_cast<std::uint32_t>(v.at("fabric_channels").as_u64());
  r.completed_rounds = v.at("completed_rounds").as_u64();
  r.merged = traffic_report_from(v.at("merged"));
  const Value& per_channel = v.at("per_channel");
  r.per_channel.reserve(per_channel.size());
  for (std::size_t i = 0; i < per_channel.size(); ++i) {
    r.per_channel.push_back(traffic_report_from(per_channel.item(i)));
  }
  r.locker = locker_from(v.at("locker"));
  r.locked_rows = static_cast<std::size_t>(v.at("locked_rows").as_u64());
  r.defense_time = v.at("defense_time").as_i64();
  stack_stats_from_journal(v, r);
  const Value& health = v.at("channel_health");
  r.channel_health.reserve(health.size());
  for (std::size_t i = 0; i < health.size(); ++i) {
    r.channel_health.push_back(enum_from<dl::resilience::ChannelHealth>(
        health.item(i), "channel_health"));
  }
  r.chaos_enabled = v.at("chaos_enabled").as_bool();
  if (r.chaos_enabled) {
    const Value& av = v.at("availability");
    r.availability.offered = av.at("offered").as_u64();
    r.availability.served = av.at("served").as_u64();
    r.availability.shed = av.at("shed").as_u64();
    r.availability.failed = av.at("failed").as_u64();
    r.availability.redirected = av.at("redirected").as_u64();
    r.availability.time_in_degraded = av.at("time_in_degraded").as_i64();
    r.availability.first_fault_at = av.at("first_fault_at").as_i64();
    r.availability.restored_at = av.at("restored_at").as_i64();
    r.availability.mttr = av.at("mttr").as_i64();
    r.availability.restored = av.at("restored").as_bool();
  }
  return r;
}

// One journal line = JSON text + "\t#crc32:xxxxxxxx".  The trailer guards
// against mid-file corruption that still parses as JSON; a missing trailer
// is a legacy line and falls back to parse-or-skip.
constexpr const char* kCrcSep = "\t#crc32:";

std::string crc_trailer(const std::string& json) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%s%08x", kCrcSep,
                dl::crc32(json.data(), json.size()));
  return buf;
}

/// Splits `line` into JSON text and verifies its CRC trailer in place.
/// Returns false on a mismatched trailer (caller warns and skips); lines
/// without a trailer pass through unchanged for the legacy parse path.
bool split_and_check_crc(std::string& line) {
  const std::size_t pos = line.rfind(kCrcSep);
  if (pos == std::string::npos) return true;  // legacy line, no trailer
  const std::string hex = line.substr(pos + std::strlen(kCrcSep));
  line.resize(pos);
  char* end = nullptr;
  const unsigned long want = std::strtoul(hex.c_str(), &end, 16);
  if (hex.size() != 8 || end != hex.c_str() + hex.size()) return false;
  return dl::crc32(line.data(), line.size()) ==
         static_cast<std::uint32_t>(want);
}

}  // namespace

CampaignJournal::CampaignJournal(std::string path) : path_(std::move(path)) {
  DL_REQUIRE(!path_.empty(), "journal path must not be empty");
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // A torn tail line (process killed mid-write) or other unparsable
    // garbage costs exactly that campaign — everything before it survives.
    // A line with a *mismatched* CRC trailer is different: it parsed as a
    // line but its payload rotted, so warn before skipping it.
    if (!split_and_check_crc(line)) {
      std::fprintf(stderr,
                   "journal: CRC mismatch in '%s', skipping one line\n",
                   path_.c_str());
      ++crc_mismatches_;
      continue;
    }
    try {
      const Value v = Value::parse(line);
      const std::string& kind = v.at("kind").as_string();
      if (kind == "hammer") {
        HammerCampaignResult r = hammer_from_journal(v);
        hammer_.insert_or_assign(r.name, std::move(r));
      } else if (kind == "bfa") {
        BfaCampaignResult r = bfa_from_journal(v);
        bfa_.insert_or_assign(r.name, std::move(r));
      } else if (kind == "serve") {
        ServeCampaignResult r = serve_from_journal(v);
        serve_.insert_or_assign(r.name, std::move(r));
      }
      ++loaded_;
    } catch (const std::exception&) {
      continue;
    }
  }
  in.close();
  out_ = std::fopen(path_.c_str(), "a");
  DL_REQUIRE(out_ != nullptr, "cannot open journal '" + path_ +
                                  "' for appending");
}

CampaignJournal::~CampaignJournal() {
  if (out_ != nullptr) std::fclose(out_);
}

const HammerCampaignResult* CampaignJournal::find_hammer(
    const std::string& name) const {
  const auto it = hammer_.find(name);
  return it == hammer_.end() ? nullptr : &it->second;
}

const BfaCampaignResult* CampaignJournal::find_bfa(
    const std::string& name) const {
  const auto it = bfa_.find(name);
  return it == bfa_.end() ? nullptr : &it->second;
}

const ServeCampaignResult* CampaignJournal::find_serve(
    const std::string& name) const {
  const auto it = serve_.find(name);
  return it == serve_.end() ? nullptr : &it->second;
}

void CampaignJournal::append_line(const std::string& line) {
  const std::string trailer = crc_trailer(line);
  const std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fwrite(trailer.data(), 1, trailer.size(), out_);
  std::fputc('\n', out_);
  std::fflush(out_);
}

void CampaignJournal::record(const HammerCampaignResult& r) {
  append_line(hammer_to_journal(r).dump());
}

void CampaignJournal::record(const BfaCampaignResult& r) {
  append_line(bfa_to_journal(r).dump());
}

void CampaignJournal::record(const ServeCampaignResult& r) {
  append_line(serve_to_journal(r).dump());
}

std::vector<HammerCampaignResult> run_journaled(
    const std::vector<HammerCampaign>& campaigns, CampaignJournal& journal) {
  std::vector<HammerCampaignResult> results(campaigns.size());
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    if (const auto* cached = journal.find_hammer(campaigns[i].name)) {
      results[i] = *cached;
    } else {
      todo.push_back(i);
    }
  }
  dl::parallel::parallel_for(
      0, todo.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t i = todo[t];
          results[i] = run_one_isolated(campaigns[i]);
          journal.record(results[i]);
        }
      });
  return results;
}

std::vector<BfaCampaignResult> run_bfa_journaled(
    const VictimRef& victim, const std::vector<BfaCampaign>& campaigns,
    CampaignJournal& journal) {
  std::vector<BfaCampaignResult> results;
  results.reserve(campaigns.size());
  for (const BfaCampaign& c : campaigns) {
    if (const auto* cached = journal.find_bfa(c.name)) {
      results.push_back(*cached);
      continue;
    }
    results.push_back(run_bfa_isolated(victim, c));
    journal.record(results.back());
  }
  victim.qmodel.restore();
  return results;
}

std::vector<ServeCampaignResult> run_serve_journaled(
    const std::vector<ServeCampaign>& campaigns, CampaignJournal& journal) {
  std::vector<ServeCampaignResult> results(campaigns.size());
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    if (const auto* cached = journal.find_serve(campaigns[i].name)) {
      results[i] = *cached;
    } else {
      todo.push_back(i);
    }
  }
  dl::parallel::parallel_for(
      0, todo.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t i = todo[t];
          results[i] = run_serve_isolated(campaigns[i]);
          journal.record(results[i]);
        }
      });
  return results;
}

}  // namespace dl::scenario
