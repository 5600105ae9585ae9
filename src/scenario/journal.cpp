#include "scenario/journal.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fields.hpp"
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
  c.group_size =
      dl::fields::narrow<std::uint32_t>(v.at("group_size"), "group_size");
  c.recovery =
      enum_from<dl::integrity::Recovery>(v.at("recovery"), "recovery");
  return c;
}

Value tenant_to_journal(const dl::traffic::TenantStats& t) {
  auto tv = Value::object();
  tv["name"] = t.name;
  tv["kind"] = static_cast<std::uint8_t>(t.kind);
  dl::fields::put_journal(tv, t);
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
  auto t = dl::fields::from_journal<dl::traffic::TenantStats>(tv);
  t.name = tv.at("name").as_string();
  t.kind = enum_from<dl::traffic::StreamKind>(tv.at("kind"), "kind");
  t.queue_latency = latency_from(tv);
  return t;
}

/// The stack-level stats hammer and serve lines both carry: integrity,
/// faults, degraded, refresh and resilience, each optional block behind its
/// enabled flag.  `Result` is HammerCampaignResult or ServeCampaignResult,
/// which name these members alike.
template <typename Result>
void stack_stats_to_journal(Value& v, const Result& r) {
  using dl::fields::to_journal;
  v["integrity_enabled"] = r.integrity_enabled;
  if (r.integrity_enabled) {
    v["integrity_config"] = integrity_config_to_journal(r.integrity_config);
    v["integrity"] = to_journal(r.integrity);
    v["integrity_audit"] = to_journal(r.integrity_audit);
  }
  v["faults_enabled"] = r.faults_enabled;
  if (r.faults_enabled) v["faults"] = to_journal(r.faults);
  v["degraded"] = r.degraded;
  v["timed"] = r.timed;
  if (r.timed) v["refresh"] = to_journal(r.refresh);
  v["resilience_enabled"] = r.resilience_enabled;
  if (r.resilience_enabled) v["resilience"] = to_journal(r.resilience);
}

template <typename Result>
void stack_stats_from_journal(const Value& v, Result& r) {
  using dl::fields::from_journal;
  r.integrity_enabled = v.at("integrity_enabled").as_bool();
  if (r.integrity_enabled) {
    r.integrity_config = integrity_config_from(v.at("integrity_config"));
    r.integrity =
        from_journal<dl::integrity::ScrubStats>(v.at("integrity"));
    r.integrity_audit =
        from_journal<dl::integrity::Audit>(v.at("integrity_audit"));
  }
  r.faults_enabled = v.at("faults_enabled").as_bool();
  if (r.faults_enabled) {
    r.faults = from_journal<dl::faults::FaultStats>(v.at("faults"));
  }
  r.degraded = v.at("degraded").as_bool();
  r.timed = v.at("timed").as_bool();
  if (r.timed) r.refresh = from_journal<dl::dram::RefreshStats>(v.at("refresh"));
  r.resilience_enabled = v.at("resilience_enabled").as_bool();
  if (r.resilience_enabled) {
    r.resilience =
        from_journal<dl::resilience::ResilienceStats>(v.at("resilience"));
  }
}

Value tenants_to_journal(const std::vector<dl::traffic::TenantStats>& ts) {
  auto tenants = Value::array();
  for (const auto& t : ts) tenants.push_back(tenant_to_journal(t));
  return tenants;
}

std::vector<dl::traffic::TenantStats> tenants_from_journal(const Value& v) {
  std::vector<dl::traffic::TenantStats> tenants;
  tenants.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    tenants.push_back(tenant_from_journal(v.item(i)));
  }
  return tenants;
}

Value traffic_report_to_journal(const dl::traffic::TrafficReport& rep) {
  auto v = Value::object();
  v["serviced"] = rep.serviced;
  v["elapsed"] = rep.elapsed;
  v["tenants"] = tenants_to_journal(rep.tenants);
  return v;
}

dl::traffic::TrafficReport traffic_report_from(const Value& v) {
  dl::traffic::TrafficReport rep;
  rep.serviced = v.at("serviced").as_u64();
  rep.elapsed = v.at("elapsed").as_i64();
  rep.tenants = tenants_from_journal(v.at("tenants"));
  return rep;
}

Value hammer_to_journal(const HammerCampaignResult& r) {
  using dl::fields::to_journal;
  auto v = Value::object();
  v["kind"] = "hammer";
  v["name"] = r.name;
  v["status"] = to_string(r.status);
  v["error"] = r.error;
  v["completed_cycles"] = r.completed_cycles;
  v["attack"] = to_journal(r.attack);
  v["tracker"] = to_journal(r.tracker);
  v["locker"] = to_journal(r.locker);
  v["swaps"] = r.swaps;
  v["unswaps"] = r.unswaps;
  v["degraded_migrations"] = r.degraded_migrations;
  v["rowclones"] = r.rowclones;
  v["total_flips"] = r.total_flips;
  v["locked_rows"] = r.locked_rows;
  v["defense_time"] = r.defense_time;
  v["elapsed"] = r.elapsed;
  v["tenants"] = tenants_to_journal(r.tenants);
  stack_stats_to_journal(v, r);
  v["fabric_channels"] = r.fabric_channels;
  auto channels = Value::array();
  for (const ChannelBreakdown& cb : r.channels) {
    channels.push_back(to_journal(cb));
  }
  v["channels"] = std::move(channels);
  return v;
}

HammerCampaignResult hammer_from_journal(const Value& v) {
  using dl::fields::from_journal;
  using dl::fields::narrow;
  HammerCampaignResult r;
  r.name = v.at("name").as_string();
  r.status = status_from(v.at("status").as_string());
  r.error = v.at("error").as_string();
  r.completed_cycles = v.at("completed_cycles").as_u64();
  r.attack = from_journal<dl::rowhammer::HammerResult>(v.at("attack"));
  r.tracker = from_journal<dl::defense::TrackerStats>(v.at("tracker"));
  r.locker = from_journal<dl::defense::DramLocker::Stats>(v.at("locker"));
  r.swaps = v.at("swaps").as_u64();
  r.unswaps = v.at("unswaps").as_u64();
  r.degraded_migrations = v.at("degraded_migrations").as_u64();
  r.rowclones = v.at("rowclones").as_u64();
  r.total_flips = v.at("total_flips").as_u64();
  r.locked_rows = narrow<std::size_t>(v.at("locked_rows"), "locked_rows");
  r.defense_time = v.at("defense_time").as_i64();
  r.elapsed = v.at("elapsed").as_i64();
  r.tenants = tenants_from_journal(v.at("tenants"));
  stack_stats_from_journal(v, r);
  r.fabric_channels =
      narrow<std::uint32_t>(v.at("fabric_channels"), "fabric_channels");
  const Value& channels = v.at("channels");
  r.channels.reserve(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    r.channels.push_back(from_journal<ChannelBreakdown>(channels.item(i)));
  }
  return r;
}

Value bfa_to_journal(const BfaCampaignResult& r) {
  using dl::fields::to_journal;
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
    v["integrity"] = to_journal(r.integrity);
    v["integrity_audit"] = to_journal(r.integrity_audit);
    v["accuracy_before_recovery"] = encode_double(r.accuracy_before_recovery);
    v["recovered_accuracy"] = encode_double(r.recovered_accuracy);
  }
  return v;
}

BfaCampaignResult bfa_from_journal(const Value& v) {
  using dl::fields::from_journal;
  using dl::fields::narrow;
  BfaCampaignResult r;
  r.name = v.at("name").as_string();
  r.status = status_from(v.at("status").as_string());
  r.error = v.at("error").as_string();
  const Value& curve = v.at("accuracy");
  r.accuracy.reserve(curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    r.accuracy.push_back(decode_double(curve.item(i).as_string()));
  }
  r.flips_landed = narrow<std::size_t>(v.at("flips_landed"), "flips_landed");
  r.flips_blocked =
      narrow<std::size_t>(v.at("flips_blocked"), "flips_blocked");
  r.gate_attempts = v.at("gate_attempts").as_u64();
  r.gate_landed = v.at("gate_landed").as_u64();
  r.test_accuracy_after = decode_double(v.at("test_accuracy_after").as_string());
  r.integrity_enabled = v.at("integrity_enabled").as_bool();
  if (r.integrity_enabled) {
    r.integrity_config = integrity_config_from(v.at("integrity_config"));
    r.integrity = from_journal<dl::integrity::Stats>(v.at("integrity"));
    r.integrity_audit =
        from_journal<dl::integrity::Audit>(v.at("integrity_audit"));
    r.accuracy_before_recovery =
        decode_double(v.at("accuracy_before_recovery").as_string());
    r.recovered_accuracy =
        decode_double(v.at("recovered_accuracy").as_string());
  }
  return r;
}

Value serve_to_journal(const ServeCampaignResult& r) {
  using dl::fields::to_journal;
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
  v["locker"] = to_journal(r.locker);
  v["locked_rows"] = r.locked_rows;
  v["defense_time"] = r.defense_time;
  stack_stats_to_journal(v, r);
  auto health = Value::array();
  for (const dl::resilience::ChannelHealth h : r.channel_health) {
    health.push_back(static_cast<std::uint8_t>(h));
  }
  v["channel_health"] = std::move(health);
  v["chaos_enabled"] = r.chaos_enabled;
  if (r.chaos_enabled) v["availability"] = to_journal(r.availability);
  return v;
}

ServeCampaignResult serve_from_journal(const Value& v) {
  using dl::fields::from_journal;
  using dl::fields::narrow;
  ServeCampaignResult r;
  r.name = v.at("name").as_string();
  r.status = status_from(v.at("status").as_string());
  r.error = v.at("error").as_string();
  r.fabric_channels =
      narrow<std::uint32_t>(v.at("fabric_channels"), "fabric_channels");
  r.completed_rounds = v.at("completed_rounds").as_u64();
  r.merged = traffic_report_from(v.at("merged"));
  const Value& per_channel = v.at("per_channel");
  r.per_channel.reserve(per_channel.size());
  for (std::size_t i = 0; i < per_channel.size(); ++i) {
    r.per_channel.push_back(traffic_report_from(per_channel.item(i)));
  }
  r.locker = from_journal<dl::defense::DramLocker::Stats>(v.at("locker"));
  r.locked_rows = narrow<std::size_t>(v.at("locked_rows"), "locked_rows");
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
    r.availability = from_journal<AvailabilityStats>(v.at("availability"));
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
  bool terminated = true;  // the file ends in '\n' (or is empty)
  while (std::getline(in, line)) {
    terminated = !in.eof();
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
  // End a torn tail line, so the first append starts a line of its own
  // instead of being glued to the fragment and lost with it.
  if (!terminated) std::fputc('\n', out_);
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
