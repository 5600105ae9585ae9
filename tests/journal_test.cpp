// Tests for the campaign checkpoint journal: byte-identical resume for
// hammer and BFA campaigns, torn-tail tolerance, and failed-entry replay.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/quant.hpp"
#include "nn/train.hpp"
#include "scenario/journal.hpp"
#include "scenario/scenario.hpp"
#include "schema_pins.hpp"
#include "traffic/stream.hpp"

namespace {

using namespace dl;
using scenario::CampaignJournal;
using scenario::DefenseSpec;
using scenario::HammerCampaign;

std::string journal_path(const char* name) {
  const std::string path = testing::TempDir() + "dl_journal_" + name +
                           ".jsonl";
  std::remove(path.c_str());
  return path;
}

scenario::DramEnv small_env() {
  scenario::DramEnv e;
  e.geometry.channels = 1;
  e.geometry.ranks = 1;
  e.geometry.banks = 2;
  e.geometry.subarrays_per_bank = 4;
  e.geometry.rows_per_subarray = 128;
  e.geometry.row_bytes = 4096;
  e.disturbance.t_rh = 1000;
  e.disturbance_seed = 1;
  return e;
}

/// A small campaign set covering the result surface: a plain cell, a
/// DRAM-Locker cell, a multi-tenant cell with integrity (tenant latency
/// arrays + integrity stats), a fault-injection cell, a budget-truncated
/// cell, and a deliberately broken one (tenant stream outside the
/// geometry -> constructor throw -> "failed").
std::vector<HammerCampaign> journal_campaigns() {
  std::vector<HammerCampaign> campaigns;

  HammerCampaign plain;
  plain.name = "plain";
  plain.env = small_env();
  plain.attack.victim_row = 20;
  plain.attack.act_budget = 4000;
  campaigns.push_back(plain);

  HammerCampaign locker = plain;
  locker.name = "locker";
  defense::DramLockerConfig locker_cfg;
  locker_cfg.protect_radius = 2;
  locker.defense = DefenseSpec::dram_locker(locker_cfg, 2);
  locker.protected_rows = {20};
  campaigns.push_back(locker);

  HammerCampaign traffic = plain;
  traffic.name = "traffic+integrity";
  traffic.defense = DefenseSpec::none().with_integrity({});
  traffic.defense.integrity.enabled = true;
  traffic.protected_rows = {20};
  traffic.traffic.tenants = {
      dl::traffic::StreamSpec::weight_reader(16, 8, 500),
      dl::traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                      20, 2000),
  };
  campaigns.push_back(traffic);

  HammerCampaign faulty = plain;
  faulty.name = "faulty";
  faulty.env.faults.period_acts = 64;
  faulty.env.faults.transient_rate = 0.5;
  faulty.env.faults.retention_rate = 0.5;
  campaigns.push_back(faulty);

  HammerCampaign truncated = plain;
  truncated.name = "truncated";
  truncated.cycles = 100;
  truncated.budget.max_cycles = 2;
  campaigns.push_back(truncated);

  HammerCampaign broken = plain;
  broken.name = "broken";
  broken.traffic.tenants = {
      dl::traffic::StreamSpec::weight_reader(1u << 20, 8, 100)};
  campaigns.push_back(broken);

  return campaigns;
}

TEST(Journal, HammerResumeIsByteIdentical) {
  const auto campaigns = journal_campaigns();
  const std::string path = journal_path("hammer");

  const auto direct = scenario::run(campaigns);
  const std::string expected = scenario::report_json(direct).dump(2);

  std::string first;
  {
    CampaignJournal journal(path);
    EXPECT_EQ(journal.loaded(), 0u);
    first = scenario::report_json(scenario::run_journaled(campaigns, journal))
                .dump(2);
  }
  EXPECT_EQ(first, expected);

  // Second run restores every campaign from disk — including the failed
  // and truncated ones — and reproduces the report byte for byte.
  {
    CampaignJournal journal(path);
    EXPECT_EQ(journal.loaded(), campaigns.size());
    const auto* cached = journal.find_hammer("broken");
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->status, scenario::CampaignStatus::kFailed);
    EXPECT_FALSE(cached->error.empty());
    const auto resumed = scenario::run_journaled(campaigns, journal);
    EXPECT_EQ(scenario::report_json(resumed).dump(2), expected);
  }
  std::remove(path.c_str());
}

TEST(Journal, PartialJournalRunsOnlyTheRest) {
  const auto campaigns = journal_campaigns();
  const std::string path = journal_path("partial");

  const auto direct = scenario::run(campaigns);
  // Journal only a prefix, as if the first run died after two campaigns.
  {
    CampaignJournal journal(path);
    journal.record(direct[0]);
    journal.record(direct[1]);
  }
  CampaignJournal journal(path);
  EXPECT_EQ(journal.loaded(), 2u);
  const auto resumed = scenario::run_journaled(campaigns, journal);
  EXPECT_EQ(scenario::report_json(resumed).dump(2),
            scenario::report_json(direct).dump(2));
  std::remove(path.c_str());
}

TEST(Journal, TornTailLineIsSkippedOnLoad) {
  const auto campaigns = journal_campaigns();
  const std::string path = journal_path("torn");
  {
    CampaignJournal journal(path);
    (void)scenario::run_journaled(campaigns, journal);
  }
  {
    // The process died mid-append: an unterminated half line.
    std::ofstream torn(path, std::ios::app);
    torn << "{\"kind\":\"hammer\",\"name\":\"torn-victim\",\"gr";
  }
  CampaignJournal journal(path);
  EXPECT_EQ(journal.loaded(), campaigns.size());  // torn line dropped
  EXPECT_EQ(journal.find_hammer("torn-victim"), nullptr);
  const auto resumed = scenario::run_journaled(campaigns, journal);
  EXPECT_EQ(scenario::report_json(resumed).dump(2),
            scenario::report_json(scenario::run(campaigns)).dump(2));
  // The next append starts a line of its own: the torn fragment must not
  // swallow the record written after it.
  scenario::HammerCampaignResult late = resumed[0];
  late.name = "after-the-tear";
  journal.record(late);
  CampaignJournal reloaded(path);
  EXPECT_EQ(reloaded.loaded(), campaigns.size() + 1);
  EXPECT_NE(reloaded.find_hammer("after-the-tear"), nullptr);
  std::remove(path.c_str());
}

TEST(Journal, DuplicateEntriesResolveLastWins) {
  const auto campaigns = journal_campaigns();
  const std::string path = journal_path("dup");
  const auto direct = scenario::run(campaigns);
  {
    CampaignJournal journal(path);
    auto doctored = direct[0];
    doctored.attack.granted_acts = 1;  // stale line, superseded below
    journal.record(doctored);
    journal.record(direct[0]);
  }
  CampaignJournal journal(path);
  const auto* cached = journal.find_hammer(direct[0].name);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->attack.granted_acts, direct[0].attack.granted_acts);
  std::remove(path.c_str());
}

// ------------------------------------------------------ CRC trailer

TEST(Journal, CorruptedLineIsSkippedWithWarning) {
  const auto campaigns = journal_campaigns();
  const std::string path = journal_path("crc");
  {
    CampaignJournal journal(path);
    (void)scenario::run_journaled(campaigns, journal);
  }
  // Flip one payload byte of the first line.  The line still parses as
  // JSON (a digit changed inside a number), so only the CRC trailer can
  // tell the loader the campaign result rotted on disk.
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t digit = text.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '8' : static_cast<char>(text[digit] + 1);
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  CampaignJournal journal(path);
  EXPECT_EQ(journal.crc_mismatches(), 1u);
  EXPECT_EQ(journal.loaded(), campaigns.size() - 1);  // corrupt line dropped
  // The dropped campaign simply re-runs; the resumed report still matches
  // an uninterrupted one byte for byte.
  const auto resumed = scenario::run_journaled(campaigns, journal);
  EXPECT_EQ(scenario::report_json(resumed).dump(2),
            scenario::report_json(scenario::run(campaigns)).dump(2));
  std::remove(path.c_str());
}

TEST(Journal, LegacyLineWithoutTrailerStillLoads) {
  const auto campaigns = journal_campaigns();
  const std::string path = journal_path("legacy");
  const auto direct = scenario::run(campaigns);
  {
    CampaignJournal journal(path);
    journal.record(direct[0]);
  }
  // Strip the CRC trailer, as a journal written before the trailer existed.
  std::string line;
  {
    std::ifstream in(path);
    std::getline(in, line);
  }
  const std::size_t tab = line.rfind('\t');
  ASSERT_NE(tab, std::string::npos);
  line.resize(tab);
  {
    std::ofstream out(path, std::ios::trunc);
    out << line << '\n';
  }
  CampaignJournal journal(path);
  EXPECT_EQ(journal.crc_mismatches(), 0u);
  EXPECT_EQ(journal.loaded(), 1u);
  EXPECT_NE(journal.find_hammer(direct[0].name), nullptr);
  std::remove(path.c_str());
}

// ------------------------------------------------------ serve journal

/// A plain serve campaign and a chaos one (resilience + admission + a
/// mid-run channel kill): the chaos result exercises every serve journal
/// field — availability block, channel health, resilience counters, and
/// per-tenant admission stats.
std::vector<scenario::ServeCampaign> serve_campaigns() {
  scenario::ServeCampaign plain;
  plain.name = "serve/plain";
  plain.env = small_env();
  plain.defense = DefenseSpec::none().with_integrity({});
  plain.defense.integrity.enabled = true;
  plain.traffic.tenants = {
      dl::traffic::StreamSpec::weight_reader(16, 8, 400),
      dl::traffic::StreamSpec::synthetic(64, 32, 200, 0.4, 0.2, 1),
  };
  plain.rounds = 2;

  scenario::ServeCampaign chaos = plain;
  chaos.name = "serve/chaos";
  chaos.env.fabric.channels = 2;
  chaos.env.resilience.spare_rows = 4;
  chaos.traffic.admission.enabled = true;
  chaos.traffic.admission.retry_budget = 2;
  const auto rows_per_channel = chaos.env.geometry.total_rows();
  dl::traffic::StreamSpec pinned =
      dl::traffic::StreamSpec::weight_reader(rows_per_channel + 16, 8, 300);
  pinned.pin_channel = 1;
  chaos.traffic.tenants.push_back(pinned);
  chaos.rounds = 3;
  chaos.chaos.kill_channel = 1;
  chaos.chaos.kill_at_round = 1;
  chaos.chaos.restore_at_round = 2;
  return {plain, chaos};
}

std::string serve_report(
    const std::vector<scenario::ServeCampaignResult>& results) {
  return scenario::report_json({}, {}, results).dump(2);
}

TEST(Journal, ServeResumeIsByteIdentical) {
  const auto campaigns = serve_campaigns();
  std::vector<scenario::ServeCampaignResult> direct;
  for (const auto& c : campaigns) {
    direct.push_back(scenario::run_serve_isolated(c));
  }
  const std::string expected = serve_report(direct);

  const std::string path = journal_path("serve");
  {
    CampaignJournal journal(path);
    const auto first = scenario::run_serve_journaled(campaigns, journal);
    EXPECT_EQ(serve_report(first), expected);
  }
  CampaignJournal journal(path);
  EXPECT_EQ(journal.loaded(), campaigns.size());
  const auto* cached = journal.find_serve("serve/chaos");
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->chaos_enabled);
  EXPECT_GT(cached->availability.offered, 0u);
  const auto resumed = scenario::run_serve_journaled(campaigns, journal);
  EXPECT_EQ(serve_report(resumed), expected);
  std::remove(path.c_str());
}

/// Writes `json` as the journal's only line, signed with a valid CRC
/// trailer, so only the decoder can reject it.
void write_signed_line(const std::string& path, const std::string& json) {
  char trailer[20];
  std::snprintf(trailer, sizeof trailer, "\t#crc32:%08x", dl::crc32(json));
  std::ofstream out(path, std::ios::trunc);
  out << json << trailer << '\n';
}

/// The JSON payload of `r`'s journal line.
std::string journal_json(const scenario::ServeCampaignResult& r,
                         const std::string& path) {
  {
    CampaignJournal journal(path);
    journal.record(r);
  }
  std::string line;
  std::ifstream in(path);
  std::getline(in, line);
  line.resize(line.rfind('\t'));
  return line;
}

/// Replaces the first numeric `"key":<n>` in `json`, or the first element
/// of a `"key":[n, ...]` array, with `text`.
std::string with_value(std::string json, const std::string& key,
                       const std::string& text) {
  const std::string tag = "\"" + key + "\":";
  for (std::size_t pos = json.find(tag); pos != std::string::npos;
       pos = json.find(tag, pos + 1)) {
    std::size_t at = pos + tag.size();
    if (json[at] == '[') ++at;
    if (std::isdigit(static_cast<unsigned char>(json[at])) != 0) {
      return json.replace(at, json.find_first_of(",]}", at) - at, text);
    }
  }
  ADD_FAILURE() << "no numeric \"" << key << "\" in the line";
  return json;
}

scenario::ServeCampaign tiny_serve() {
  scenario::ServeCampaign c;
  c.name = "serve/tiny";
  c.env = small_env();
  c.traffic.tenants = {
      dl::traffic::StreamSpec::weight_reader(16, 4, 24),
      dl::traffic::StreamSpec::synthetic(64, 8, 16, 0.4, 0.2, 1),
  };
  c.rounds = 2;
  return c;
}

// tiny_serve()'s journal line as written before tenants stored latency
// histograms: raw samples under "queue_latency", with the CRC trailer.
const char* const kRawSampleServeLine =
    R"({"kind":"serve","name":"serve/tiny","status":"ok","error":"")"
    R"(,"fabric_channels":1,"completed_rounds":2,"merged":{"serviced":80)"
    R"(,"elapsed":1885390,"tenants":[{"name":"t0/weight-reader","kind":0)"
    R"(,"issued":48,"granted":48,"denied":0,"rejected_enqueues":0)"
    R"(,"reads":48,"writes":0,"hammer_acts":0,"row_hits":44)"
    R"(,"data_bytes":3072,"service_time":916234,"admission":false)"
    R"(,"retried":0,"shed":0,"failed":0,"deadline_misses":0)"
    R"(,"queue_latency":[30833,47916,64999,82082,17083,34166,51249,68332)"
    R"(,17083,34166,51249,68332,404579,421662,438745,455828,334579,351662)"
    R"(,368745,385828,334579,351662,368745,385828,44583,61666,78749,95832)"
    R"(,17083,34166,51249,68332,17083,34166,51249,68332,496245,513328)"
    R"(,530411,547494,423745,440828,457911,474994,381245,398328,415411)"
    R"(,432494]},{"name":"t1/synthetic","kind":1,"issued":32,"granted":32)"
    R"(,"denied":0,"rejected_enqueues":0,"reads":24,"writes":8)"
    R"(,"hammer_acts":0,"row_hits":21,"data_bytes":2048)"
    R"(,"service_time":969156,"admission":false,"retried":0,"shed":0)"
    R"(,"failed":0,"deadline_misses":0,"queue_latency":[263329,307912)"
    R"(,339995,357078,292079,309162,326245,274996,387911,379162,396245)"
    R"(,428328,637075,654158,671241,688324,292079,309162,341245,373328)"
    R"(,157915,339162,302913,251664,432911,449994,494577,470828,487911)"
    R"(,519994,728741,745824]}]},"per_channel":[{"serviced":80)"
    R"(,"elapsed":1885390,"tenants":[{"name":"t0/weight-reader","kind":0)"
    R"(,"issued":48,"granted":48,"denied":0,"rejected_enqueues":0)"
    R"(,"reads":48,"writes":0,"hammer_acts":0,"row_hits":44)"
    R"(,"data_bytes":3072,"service_time":916234,"admission":false)"
    R"(,"retried":0,"shed":0,"failed":0,"deadline_misses":0)"
    R"(,"queue_latency":[30833,47916,64999,82082,17083,34166,51249,68332)"
    R"(,17083,34166,51249,68332,404579,421662,438745,455828,334579,351662)"
    R"(,368745,385828,334579,351662,368745,385828,44583,61666,78749,95832)"
    R"(,17083,34166,51249,68332,17083,34166,51249,68332,496245,513328)"
    R"(,530411,547494,423745,440828,457911,474994,381245,398328,415411)"
    R"(,432494]},{"name":"t1/synthetic","kind":1,"issued":32,"granted":32)"
    R"(,"denied":0,"rejected_enqueues":0,"reads":24,"writes":8)"
    R"(,"hammer_acts":0,"row_hits":21,"data_bytes":2048)"
    R"(,"service_time":969156,"admission":false,"retried":0,"shed":0)"
    R"(,"failed":0,"deadline_misses":0,"queue_latency":[263329,307912)"
    R"(,339995,357078,292079,309162,326245,274996,387911,379162,396245)"
    R"(,428328,637075,654158,671241,688324,292079,309162,341245,373328)"
    R"(,157915,339162,302913,251664,432911,449994,494577,470828,487911)"
    R"(,519994,728741,745824]}]}],"locker":{"rw_instructions":0)"
    R"(,"denied":0,"unlock_swaps":0,"relocks":0,"swap_copy_errors":0)"
    R"(,"pool_exhausted_denials":0,"swap_budget_denials":0)"
    R"(,"degraded_locks":0,"degraded_swaps":0,"fallback_refreshes":0})"
    R"(,"locked_rows":0,"defense_time":0,"integrity_enabled":false)"
    R"(,"faults_enabled":false,"degraded":false,"timed":false)"
    R"(,"resilience_enabled":false,"channel_health":[])"
    R"(,"chaos_enabled":false})"
    "\t#crc32:c4b7607e";

TEST(Journal, RawSampleLineFromOlderJournalLoadsAndFolds) {
  const std::string path = journal_path("raw_samples");
  {
    std::ofstream out(path, std::ios::trunc);
    out << kRawSampleServeLine << '\n';
  }
  const auto fresh = scenario::run_serve_isolated(tiny_serve());
  CampaignJournal journal(path);
  EXPECT_EQ(journal.crc_mismatches(), 0u);
  EXPECT_EQ(journal.loaded(), 1u);
  const auto* cached = journal.find_serve("serve/tiny");
  ASSERT_NE(cached, nullptr);
  ASSERT_EQ(cached->merged.tenants.size(), fresh.merged.tenants.size());
  for (std::size_t i = 0; i < fresh.merged.tenants.size(); ++i) {
    EXPECT_EQ(cached->merged.tenants[i].queue_latency,
              fresh.merged.tenants[i].queue_latency);
  }
  EXPECT_EQ(serve_report({*cached}), serve_report({fresh}));
  std::remove(path.c_str());
}

TEST(Journal, LatencyHistogramRoundTripsExactly) {
  // Extreme values (0 and near INT64_MAX) and large counts next to the
  // bins a real run produces.
  auto r = scenario::run_serve_isolated(serve_campaigns()[1]);
  ASSERT_EQ(r.status, scenario::CampaignStatus::kOk);
  std::vector<Picoseconds> extremes(5000, 0);
  extremes.push_back(std::numeric_limits<Picoseconds>::max());
  extremes.push_back(std::numeric_limits<Picoseconds>::max() - 1);
  r.per_channel[0].tenants[0].queue_latency.merge(
      dl::traffic::LatencyHistogram::fold(extremes));
  const std::string path = journal_path("histogram");
  (void)journal_json(r, path);
  CampaignJournal journal(path);
  const auto* cached = journal.find_serve(r.name);
  ASSERT_NE(cached, nullptr);
  const auto same_latency = [](const dl::traffic::TrafficReport& a,
                               const dl::traffic::TrafficReport& b) {
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
      EXPECT_EQ(a.tenants[i].queue_latency, b.tenants[i].queue_latency)
          << a.tenants[i].name;
    }
  };
  same_latency(cached->merged, r.merged);
  ASSERT_EQ(cached->per_channel.size(), r.per_channel.size());
  for (std::size_t c = 0; c < r.per_channel.size(); ++c) {
    same_latency(cached->per_channel[c], r.per_channel[c]);
  }
  std::remove(path.c_str());
}

TEST(Journal, MalformedLatencyBinsAreNotRestored) {
  const auto r = scenario::run_serve_isolated(tiny_serve());
  const std::string path = journal_path("bad_bins");
  const std::string json = journal_json(r, path);
  const std::string tag = "\"queue_latency_bins\":[";
  const std::size_t begin = json.find(tag);
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = json.find(']', begin);
  for (const char* bins : {"[1000,2,3000]",     // odd length
                           "[1000,2,3000,0]",   // zero count
                           "[3000,2,1000,1]",   // descending
                           "[1000,2,1000,1]",   // repeated value
                           "[1000,-2]",         // negative count
                           "[\"1000\",2]"}) {  // not a number
    std::string bad = json;
    bad.replace(begin + tag.size() - 1, end - begin - tag.size() + 2, bins);
    write_signed_line(path, bad);
    CampaignJournal journal(path);
    EXPECT_EQ(journal.crc_mismatches(), 0u) << bins;
    EXPECT_EQ(journal.loaded(), 0u) << bins;
    EXPECT_EQ(journal.find_serve(r.name), nullptr) << bins;
  }
  std::remove(path.c_str());
}

TEST(Journal, OutOfRangeEnumCodesAreNotRestored) {
  // Each enum the journal stores as an integer code, set past its last
  // enumerator under a valid CRC, and each narrowed integer set past its
  // type's range: the line must be skipped and its campaign re-run, never
  // reported with a "?" name or a wrapped value.
  const auto campaigns = serve_campaigns();
  const auto chaos = scenario::run_serve_isolated(campaigns[1]);
  ASSERT_FALSE(chaos.channel_health.empty());
  const std::string path = journal_path("enum_codes");
  const std::string json = journal_json(chaos, path);
  std::vector<scenario::ServeCampaignResult> direct;
  for (const auto& c : campaigns) {
    direct.push_back(scenario::run_serve_isolated(c));
  }
  const std::string expected = serve_report(direct);
  const std::vector<std::string> crafted = {
      with_value(with_value(json, "kind", "7"), "scheme", "9"),
      with_value(json, "kind", "7"),
      with_value(json, "kind", "256"),  // wraps to a valid code if unchecked
      with_value(json, "scheme", "9"),
      with_value(json, "recovery", "9"),
      with_value(json, "channel_health", "9"),
      // Integers narrowed on decode, past their type's range: unchecked,
      // 2^32+1 channels would load as 1 and 2^32+32 bytes as 32.
      with_value(json, "fabric_channels", "4294967297"),
      with_value(json, "group_size", "4294967328"),
  };
  for (std::size_t m = 0; m < crafted.size(); ++m) {
    write_signed_line(path, crafted[m]);
    CampaignJournal journal(path);
    EXPECT_EQ(journal.crc_mismatches(), 0u) << m;
    EXPECT_EQ(journal.loaded(), 0u) << m;
    EXPECT_EQ(journal.find_serve(chaos.name), nullptr) << m;
    EXPECT_EQ(serve_report(scenario::run_serve_journaled(campaigns, journal)),
              expected)
        << m;
  }
  std::remove(path.c_str());
}

TEST(Journal, TooDeeplyNestedLineIsNotRestored) {
  // 50,000 nested arrays under a valid CRC: the parser must refuse the
  // line with an error, not recurse once per level until the stack runs
  // out, and the campaign re-runs.
  const auto direct = scenario::run_serve_isolated(tiny_serve());
  const std::string path = journal_path("deep");
  std::string json = journal_json(direct, path);
  json.insert(json.size() - 1, ",\"deep\":" + std::string(50'000, '[') +
                                   std::string(50'000, ']'));
  write_signed_line(path, json);
  CampaignJournal journal(path);
  EXPECT_EQ(journal.crc_mismatches(), 0u);
  EXPECT_EQ(journal.loaded(), 0u);
  EXPECT_EQ(journal.find_serve(direct.name), nullptr);
  EXPECT_EQ(serve_report(scenario::run_serve_journaled({tiny_serve()}, journal)),
            serve_report({direct}));
  std::remove(path.c_str());
}

// ------------------------------------------------------ schema pins

// Journal lines of the tests/schema_pins.hpp results, with their CRC
// trailers, as written before the stats structs had field tables.
const char* const kHammerPinLine =
    R"({"kind":"hammer","name":"pin/hammer","status":"truncated","error":)"
    R"("","completed_cycles":3,"attack":{"granted_acts":101,"denied_acts")"
    R"(:102,"flips_in_victim":103,"flips_elsewhere":104,"elapsed":105},"t)"
    R"(racker":{"observed_acts":111,"mitigations":112,"victim_refreshes":)"
    R"(113},"locker":{"rw_instructions":121,"denied":122,"unlock_swaps":1)"
    R"(23,"relocks":124,"swap_copy_errors":125,"pool_exhausted_denials":1)"
    R"(26,"swap_budget_denials":127,"degraded_locks":128,"degraded_swaps")"
    R"(:129,"fallback_refreshes":130},"swaps":131,"unswaps":132,"degraded)"
    R"(_migrations":133,"rowclones":134,"total_flips":135,"locked_rows":1)"
    R"(36,"defense_time":137000,"elapsed":138000000,"tenants":[{"name":"p)"
    R"(in-attacker","kind":2,"issued":141,"granted":142,"denied":143,"rej)"
    R"(ected_enqueues":144,"reads":145,"writes":146,"hammer_acts":147,"ro)"
    R"(w_hits":148,"data_bytes":149,"service_time":150,"admission":true,")"
    R"(retried":154,"shed":155,"failed":156,"deadline_misses":157,"queue_)"
    R"(latency_bins":[151,1,152,2,153,3]}],"integrity_enabled":true,"inte)"
    R"(grity_config":{"scheme":1,"group_size":160,"recovery":1},"integrit)"
    R"(y":{"passes":161,"scrub_reads":162,"scrub_read_bytes":163,"denied_)"
    R"(accesses":164,"correction_writes":165,"verified_groups":166,"detec)"
    R"(tions":167,"corrected_bits":168,"zeroed_groups":169,"zeroed_corrup)"
    R"(t_bytes":170,"checksum_repairs":171,"uncorrectable":172,"unrecover)"
    R"(able_faults":173,"first_detection_at":174},"integrity_audit":{"cor)"
    R"(rupt_bytes":175,"missed_bytes":176},"faults_enabled":true,"faults")"
    R"(:{"events":181,"retention_faults":182,"transient_faults":183,"stuc)"
    R"(k_cells":184,"stuck_overrides":185,"lock_evictions":186,"remap_fau)"
    R"(lts":187,"checksum_faults":188},"degraded":true,"timed":true,"refr)"
    R"(esh":{"refs_issued":221,"ref_busy_ps":222,"max_ref_slip_ps":223},")"
    R"(resilience_enabled":true,"resilience":{"strikes":231,"retired_rows)"
    R"(":232,"spares_total":233,"spares_remaining":234,"remap_reads":235,)"
    R"("rematerialized_bytes":236,"retires_denied":237},"fabric_channels")"
    R"(:2,"channels":[{"granted_acts":201,"denied_acts":202,"flips_in_vic)"
    R"(tim":203,"flips_elsewhere":204,"rowclones":205,"total_flips":206,")"
    R"(serviced":207,"defense_time":208,"elapsed":209},{"granted_acts":21)"
    R"(1,"denied_acts":212,"flips_in_victim":213,"flips_elsewhere":214,"r)"
    R"(owclones":215,"total_flips":216,"serviced":217,"defense_time":218,)"
    R"("elapsed":219}]})"
    "\t#crc32:4a7b5f40";

const char* const kServePinLine =
    R"({"kind":"serve","name":"pin/serve","status":"ok","error":"","fabri)"
    R"(c_channels":2,"completed_rounds":301,"merged":{"serviced":441,"ela)"
    R"(psed":42400,"tenants":[{"name":"pin-web","kind":1,"issued":401,"gr)"
    R"(anted":402,"denied":403,"rejected_enqueues":404,"reads":405,"write)"
    R"(s":406,"hammer_acts":407,"row_hits":408,"data_bytes":409,"service_)"
    R"(time":410,"admission":true,"retried":414,"shed":415,"failed":416,")"
    R"(deadline_misses":417,"queue_latency_bins":[411,1,412,2,413,3]},{"n)"
    R"(ame":"scrub","kind":3,"issued":421,"granted":422,"denied":423,"rej)"
    R"(ected_enqueues":424,"reads":425,"writes":426,"hammer_acts":427,"ro)"
    R"(w_hits":428,"data_bytes":429,"service_time":430,"admission":false,)"
    R"("retried":434,"shed":435,"failed":436,"deadline_misses":437,"queue)"
    R"(_latency_bins":[431,1,432,2,433,3]}]},"per_channel":[{"serviced":5)"
    R"(41,"elapsed":42500,"tenants":[{"name":"pin-web","kind":1,"issued":)"
    R"(501,"granted":502,"denied":503,"rejected_enqueues":504,"reads":505)"
    R"(,"writes":506,"hammer_acts":507,"row_hits":508,"data_bytes":509,"s)"
    R"(ervice_time":510,"admission":true,"retried":514,"shed":515,"failed)"
    R"(":516,"deadline_misses":517,"queue_latency_bins":[511,1,512,2,513,)"
    R"(3]},{"name":"scrub","kind":3,"issued":521,"granted":522,"denied":5)"
    R"(23,"rejected_enqueues":524,"reads":525,"writes":526,"hammer_acts":)"
    R"(527,"row_hits":528,"data_bytes":529,"service_time":530,"admission")"
    R"(:false,"retried":534,"shed":535,"failed":536,"deadline_misses":537)"
    R"(,"queue_latency_bins":[531,1,532,2,533,3]}]},{"serviced":641,"elap)"
    R"(sed":42600,"tenants":[{"name":"pin-web","kind":1,"issued":601,"gra)"
    R"(nted":602,"denied":603,"rejected_enqueues":604,"reads":605,"writes)"
    R"(":606,"hammer_acts":607,"row_hits":608,"data_bytes":609,"service_t)"
    R"(ime":610,"admission":true,"retried":614,"shed":615,"failed":616,"d)"
    R"(eadline_misses":617,"queue_latency_bins":[611,1,612,2,613,3]},{"na)"
    R"(me":"scrub","kind":3,"issued":621,"granted":622,"denied":623,"reje)"
    R"(cted_enqueues":624,"reads":625,"writes":626,"hammer_acts":627,"row)"
    R"(_hits":628,"data_bytes":629,"service_time":630,"admission":false,")"
    R"(retried":634,"shed":635,"failed":636,"deadline_misses":637,"queue_)"
    R"(latency_bins":[631,1,632,2,633,3]}]}],"locker":{"rw_instructions":)"
    R"(701,"denied":702,"unlock_swaps":703,"relocks":704,"swap_copy_error)"
    R"(s":705,"pool_exhausted_denials":706,"swap_budget_denials":707,"deg)"
    R"(raded_locks":708,"degraded_swaps":709,"fallback_refreshes":710},"l)"
    R"(ocked_rows":711,"defense_time":712,"integrity_enabled":true,"integ)"
    R"(rity_config":{"scheme":0,"group_size":720,"recovery":0},"integrity)"
    R"(":{"passes":721,"scrub_reads":722,"scrub_read_bytes":723,"denied_a)"
    R"(ccesses":724,"correction_writes":725,"verified_groups":726,"detect)"
    R"(ions":727,"corrected_bits":728,"zeroed_groups":729,"zeroed_corrupt)"
    R"(_bytes":730,"checksum_repairs":731,"uncorrectable":732,"unrecovera)"
    R"(ble_faults":733,"first_detection_at":734},"integrity_audit":{"corr)"
    R"(upt_bytes":735,"missed_bytes":736},"faults_enabled":true,"faults":)"
    R"({"events":741,"retention_faults":742,"transient_faults":743,"stuck)"
    R"(_cells":744,"stuck_overrides":745,"lock_evictions":746,"remap_faul)"
    R"(ts":747,"checksum_faults":748},"degraded":true,"timed":true,"refre)"
    R"(sh":{"refs_issued":751,"ref_busy_ps":752,"max_ref_slip_ps":753},"r)"
    R"(esilience_enabled":true,"resilience":{"strikes":761,"retired_rows")"
    R"(:762,"spares_total":763,"spares_remaining":764,"remap_reads":765,")"
    R"(rematerialized_bytes":766,"retires_denied":767},"channel_health":[)"
    R"(1,2],"chaos_enabled":true,"availability":{"offered":771,"served":7)"
    R"(72,"shed":773,"failed":774,"redirected":775,"time_in_degraded":776)"
    R"(,"first_fault_at":777,"restored_at":778,"mttr":779,"restored":true)"
    R"(}})"
    "\t#crc32:32ea1da2";

const char* const kBfaPinLine =
    R"({"kind":"bfa","name":"pin/bfa","status":"ok","error":"","accuracy")"
    R"(:["0x1.cp-1","0x1.4p-1","0x1p-1"],"flips_landed":801,"flips_blocke)"
    R"(d":802,"gate_attempts":803,"gate_landed":804,"test_accuracy_after")"
    R"(:"0x1.8p-2","integrity_enabled":true,"integrity_config":{"scheme":)"
    R"(1,"group_size":810,"recovery":2},"integrity":{"verified_groups":81)"
    R"(1,"detections":812,"corrected_bits":813,"zeroed_groups":814,"zeroe)"
    R"(d_corrupt_bytes":815,"checksum_repairs":816,"uncorrectable":817},")"
    R"(integrity_audit":{"corrupt_bytes":818,"missed_bytes":819},"accurac)"
    R"(y_before_recovery":"0x1p-2","recovered_accuracy":"0x1.ap-1"})"
    "\t#crc32:672da432";

std::string hex(std::uint32_t crc) {
  char buf[12];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

template <typename Result>
std::string report_digest(const Result& r) {
  return hex(dl::crc32(scenario::to_json(r).dump()));
}

/// `journal` holds the three schema-pin results; each renders to its
/// pinned report digest.
void expect_pinned(const CampaignJournal& journal) {
  EXPECT_EQ(journal.crc_mismatches(), 0u);
  EXPECT_EQ(journal.loaded(), 3u);
  const auto* hammer = journal.find_hammer("pin/hammer");
  const auto* serve = journal.find_serve("pin/serve");
  const auto* bfa = journal.find_bfa("pin/bfa");
  ASSERT_NE(hammer, nullptr);
  ASSERT_NE(serve, nullptr);
  ASSERT_NE(bfa, nullptr);
  EXPECT_EQ(report_digest(*hammer), hex(schema_pins::kHammerCrc));
  EXPECT_EQ(report_digest(*serve), hex(schema_pins::kServeCrc));
  EXPECT_EQ(report_digest(*bfa), hex(schema_pins::kBfaCrc));
}

TEST(Journal, OlderPinnedLinesLoadToThePinnedReports) {
  const std::string path = journal_path("pins_older");
  {
    std::ofstream out(path, std::ios::trunc);
    out << kHammerPinLine << '\n' << kServePinLine << '\n' << kBfaPinLine
        << '\n';
  }
  expect_pinned(CampaignJournal(path));
  std::remove(path.c_str());
}

TEST(Journal, PinnedResultsRoundTrip) {
  const std::string path = journal_path("pins_round_trip");
  {
    CampaignJournal journal(path);
    journal.record(schema_pins::hammer());
    journal.record(schema_pins::serve());
    journal.record(schema_pins::bfa());
  }
  expect_pinned(CampaignJournal(path));
  std::remove(path.c_str());
}

// ------------------------------------------------------ BFA journal

TEST(Journal, BfaResumeIsByteIdentical) {
  // Tiny trained victim: the BFA result carries hexfloat-encoded accuracy
  // curves, the exact-round-trip stress case for the journal.
  nn::SynthConfig cfg = nn::synth_cifar10();
  cfg.num_classes = 4;
  const nn::Dataset train = nn::make_synth_cifar(cfg, 64, 41);
  const nn::Dataset sample = nn::make_synth_cifar(cfg, 16, 42);
  nn::Model model;
  dl::Rng rng(43);
  model.add(std::make_unique<nn::Conv2d>(3, 4, 3, 2, 1, rng));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::GlobalAvgPool>());
  model.add(std::make_unique<nn::Linear>(4, 4, rng));
  nn::SgdConfig scfg;
  scfg.epochs = 2;
  scfg.batch_size = 16;
  nn::SgdTrainer trainer(model, scfg, dl::Rng(44));
  trainer.fit(train);
  nn::QuantizedModel qmodel(model);
  const scenario::VictimRef victim{model, qmodel, sample,
                                   nn::evaluate_accuracy(model, sample)};

  scenario::BfaCampaign attacked;
  attacked.name = "bfa/plain";
  attacked.bfa.max_iterations = 4;
  attacked.bfa.layers_evaluated = 1;
  attacked.fixed_iterations = true;
  scenario::BfaCampaign defended = attacked;
  defended.name = "bfa/integrity";
  defended.integrity.enabled = true;
  defended.integrity.verify_interval = 1;
  const std::vector<scenario::BfaCampaign> campaigns = {attacked, defended};

  const auto direct = scenario::run_bfa(victim, campaigns);
  const std::string expected = scenario::report_json({}, direct).dump(2);

  const std::string path = journal_path("bfa");
  {
    CampaignJournal journal(path);
    const auto first = scenario::run_bfa_journaled(victim, campaigns, journal);
    EXPECT_EQ(scenario::report_json({}, first).dump(2), expected);
  }
  CampaignJournal journal(path);
  EXPECT_EQ(journal.loaded(), campaigns.size());
  ASSERT_NE(journal.find_bfa("bfa/integrity"), nullptr);
  const auto resumed = scenario::run_bfa_journaled(victim, campaigns, journal);
  EXPECT_EQ(scenario::report_json({}, resumed).dump(2), expected);
  std::remove(path.c_str());
}

}  // namespace
