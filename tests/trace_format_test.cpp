// Trace file format: encode/decode round-trips bit-exactly, and the decoder
// rejects every malformed input — truncations at all prefix lengths, a bad
// magic, a version from the future or before v4, and seeded single-bit
// corruptions — with a clean TraceError, never UB (the asan preset runs this
// file too). A v4 file decodes with its recorded audit hashes zeroed.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "harness/experiment.h"
#include "replay/trace_io.h"

namespace dynreg::replay {
namespace {

harness::ExperimentConfig sample_config() {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kEventuallySynchronous;
  cfg.n = 7;
  cfg.delta = 4;
  cfg.duration = 1234;
  cfg.seed = 99;
  cfg.churn_rate = 0.0125;
  cfg.leave_policy = churn::LeavePolicy::kOldestActiveFirst;
  cfg.gst = 250;
  cfg.pre_gst_max = 64;
  cfg.loss_rate = 0.05;
  cfg.es_atomic_reads = true;
  cfg.sync_delta_pp = 3;
  cfg.workload.read_interval = 7;
  cfg.workload.write_interval = 29;
  cfg.shard_count = 4;  // v4 appendix fields
  cfg.workload.key_count = 96;
  cfg.workload.zipf_s = 1.25;
  cfg.workload.read_frac = 0.75;
  cfg.workload.storm_every = 300;
  cfg.workload.storm_len = 40;
  return cfg;
}

TraceFile sample_file() {
  TraceFile f;
  f.experiment = "es_churn_sweep";
  f.seeds = {3};
  f.config = sample_config();

  Trace t;
  t.fingerprint = fingerprint(*f.config);
  t.seed = 42;
  t.recorded_hash = 0x1234567890abcdefULL;
  t.churn_loop = true;
  t.net.push_back(NetRecord{5, 0, 1, 2, false, 3});
  t.net.push_back(NetRecord{5, 0, 2, 2, true, 0});
  t.net.push_back(NetRecord{9, 1, 0, 4, false, 1});
  t.churn.push_back(ChurnRecord{7, true, 0, 0});
  t.churn.push_back(ChurnRecord{11, false, 3, 2});  // v4: shard-tagged
  t.picks.push_back(PickRecord{8, 2});
  f.traces.push_back(t);

  Trace empty;  // a trace with no decisions must survive the format too
  empty.fingerprint = 2;
  empty.seed = 1;
  f.traces.push_back(empty);
  return f;
}

TEST(TraceFormat, EncodeDecodeRoundTripsBitExactly) {
  const TraceFile f = sample_file();
  const auto bytes = encode(f);
  const TraceFile d = decode(bytes);

  EXPECT_EQ(d.experiment, f.experiment);
  EXPECT_EQ(d.seeds, f.seeds);
  ASSERT_TRUE(d.config.has_value());
  ASSERT_EQ(d.traces.size(), 2u);
  EXPECT_EQ(d.traces[0].fingerprint, f.traces[0].fingerprint);
  EXPECT_EQ(d.traces[0].seed, 42u);
  EXPECT_EQ(d.traces[0].recorded_hash, 0x1234567890abcdefULL);
  EXPECT_TRUE(d.traces[0].churn_loop);
  ASSERT_EQ(d.traces[0].net.size(), 3u);
  EXPECT_EQ(d.traces[0].net[1].time, 5u);
  EXPECT_TRUE(d.traces[0].net[1].lost);
  ASSERT_EQ(d.traces[0].churn.size(), 2u);
  EXPECT_FALSE(d.traces[0].churn[1].join);
  EXPECT_EQ(d.traces[0].churn[1].victim, 3u);
  EXPECT_EQ(d.traces[0].churn[0].shard, 0u);
  EXPECT_EQ(d.traces[0].churn[1].shard, 2u);
  ASSERT_EQ(d.traces[0].picks.size(), 1u);
  EXPECT_EQ(d.traces[0].picks[0].chosen, 2u);
  EXPECT_TRUE(d.traces[1].net.empty());

  // The decisive check: re-encoding the decoded file reproduces the bytes.
  EXPECT_EQ(encode(d), bytes);
}

TEST(TraceFormat, ConfigEncodingRoundTripsEveryField) {
  const harness::ExperimentConfig cfg = sample_config();
  std::vector<std::uint8_t> bytes;
  encode_config(cfg, bytes);
  std::size_t pos = 0;
  const harness::ExperimentConfig d = decode_config(bytes, pos);
  EXPECT_EQ(pos, bytes.size());

  std::vector<std::uint8_t> again;
  encode_config(d, again);
  EXPECT_EQ(again, bytes);
  EXPECT_EQ(d.protocol, cfg.protocol);
  EXPECT_EQ(d.n, cfg.n);
  EXPECT_EQ(d.seed, cfg.seed);
  EXPECT_EQ(d.churn_rate, cfg.churn_rate);
  ASSERT_TRUE(d.sync_delta_pp.has_value());
  EXPECT_EQ(*d.sync_delta_pp, 3u);
  EXPECT_FALSE(d.sync_refresh_interval.has_value());
  EXPECT_EQ(d.shard_count, 4u);  // v4 appendix
  EXPECT_EQ(d.workload.key_count, 96u);
  EXPECT_EQ(d.workload.zipf_s, 1.25);
  EXPECT_EQ(d.workload.read_frac, 0.75);
  EXPECT_EQ(d.workload.storm_every, 300u);
  EXPECT_EQ(d.workload.storm_len, 40u);
}

TEST(TraceFormat, FingerprintIgnoresSeedAndSeesEverythingElse) {
  harness::ExperimentConfig a = sample_config();
  harness::ExperimentConfig b = a;
  b.seed = a.seed + 17;
  EXPECT_EQ(fingerprint(a), fingerprint(b));  // seed is keyed separately
  b.churn_rate += 0.001;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), 0u);
  // v4 appendix fields are keyed too: two sharded configs differing only in
  // shard count or workload skew must never share a trace.
  b = a;
  b.shard_count = a.shard_count + 1;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.workload.zipf_s += 0.01;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.workload.read_frac -= 0.05;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.workload.storm_every = 0;
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(TraceFormat, EveryTruncationThrowsCleanly) {
  const auto bytes = encode(sample_file());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(decode(prefix), TraceError) << "prefix length " << len;
  }
}

TEST(TraceFormat, BadMagicIsDiagnosed) {
  auto bytes = encode(sample_file());
  bytes[0] ^= 0xff;
  try {
    decode(bytes);
    FAIL() << "decode accepted a bad magic";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, FutureVersionIsDiagnosed) {
  auto bytes = encode(sample_file());
  bytes[4] = static_cast<std::uint8_t>(kTraceVersion + 1);
  try {
    decode(bytes);
    FAIL() << "decode accepted a future version";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, CorruptedBodyFailsTheChecksum) {
  auto bytes = encode(sample_file());
  bytes[bytes.size() / 2] ^= 0x10;
  try {
    decode(bytes);
    FAIL() << "decode accepted a corrupted body";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, SeededBitFlipFuzzAlwaysThrowsNeverCrashes) {
  const auto bytes = encode(sample_file());
  // Portable generator (mt19937's sequence is pinned by the standard), so
  // the fuzzed corpus is identical on every platform and run.
  std::mt19937 gen(20260808u);
  for (int i = 0; i < 500; ++i) {
    auto corrupt = bytes;
    const std::size_t byte = gen() % corrupt.size();
    corrupt[byte] ^= static_cast<std::uint8_t>(1u << (gen() % 8));
    // Every byte is covered by the magic, the version check, or the trailing
    // checksum, so any single-bit flip must be rejected — and must never
    // crash or read out of bounds (the asan preset enforces the latter).
    EXPECT_THROW(decode(corrupt), TraceError) << "flip in byte " << byte;
  }
}

/// Mirror of trace_io's trailing checksum (fold64 over 8-byte LE chunks,
/// zero-padded tail, length folded in last) — the test needs it to build a
/// structurally-lying file whose checksum is nonetheless valid.
std::uint64_t file_checksum(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0x445254522d763101ULL;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    for (int b = 0; b < 8; ++b) chunk |= std::uint64_t{bytes[i + b]} << (8 * b);
    h = fold64(h, chunk);
  }
  if (i < bytes.size()) {
    std::uint64_t chunk = 0;
    for (std::size_t b = 0; i + b < bytes.size(); ++b) {
      chunk |= std::uint64_t{bytes[i + b]} << (8 * b);
    }
    h = fold64(h, chunk);
  }
  return fold64(h, bytes.size());
}

TEST(TraceFormat, LyingRecordCountsCannotBalloonAllocation) {
  // A hand-built file that claims 2^40 traces, with a *valid* checksum so
  // only the count-vs-remaining-bytes validation stands between the decoder
  // and a terabyte reserve. It must throw TraceError, not allocate.
  std::vector<std::uint8_t> bytes;
  const auto put_u32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u32(kTraceMagic);
  put_u32(kTraceVersion);
  bytes.push_back(0);  // empty experiment name
  bytes.push_back(0);  // zero seeds
  bytes.push_back(0);  // no config
  // trace count 2^40 as LEB128: five continuation bytes then 0x10
  for (int i = 0; i < 5; ++i) bytes.push_back(0x80);
  bytes.push_back(0x10);
  const std::uint64_t sum = file_checksum(bytes);
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  EXPECT_THROW(decode(bytes), TraceError);
}

/// `file` encoded, then relabelled as format `version` under a valid checksum.
std::vector<std::uint8_t> encode_as_version(const TraceFile& file, std::uint32_t version) {
  auto bytes = encode(file);
  bytes.resize(bytes.size() - 8);  // drop the checksum
  for (int i = 0; i < 4; ++i) bytes[4 + i] = static_cast<std::uint8_t>(version >> (8 * i));
  const std::uint64_t sum = file_checksum(bytes);
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  return bytes;
}

TEST(TraceFormat, V4FileDecodesWithRecordedHashZeroed) {
  // Older files hashed a different event stream (v4: one event per
  // broadcast copy; v5: one event per tree-mode copy); this build's replay
  // cannot match those hashes, so the decoder drops them and replay falls
  // back to the emitter-output check. Everything else decodes as written.
  const TraceFile f = sample_file();
  ASSERT_NE(f.traces[0].recorded_hash, 0u);
  for (const std::uint32_t version : {4u, 5u}) {
    SCOPED_TRACE(version);
    const TraceFile d = decode(encode_as_version(f, version));
    ASSERT_EQ(d.traces.size(), f.traces.size());
    for (const Trace& t : d.traces) EXPECT_EQ(t.recorded_hash, 0u);
    EXPECT_EQ(d.traces[0].fingerprint, f.traces[0].fingerprint);
    EXPECT_EQ(d.traces[0].net.size(), f.traces[0].net.size());
    EXPECT_EQ(d.traces[0].churn.size(), f.traces[0].churn.size());
  }
  EXPECT_EQ(decode(encode(f)).traces[0].recorded_hash, f.traces[0].recorded_hash);
}

TEST(TraceFormat, VersionBeforeV4IsDiagnosed) {
  try {
    decode(encode_as_version(sample_file(), kOldestTraceVersion - 1));
    FAIL() << "decode accepted a v3 file";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, FileIoRoundTripsAndMissingFileThrows) {
  const TraceFile f = sample_file();
  const std::string path = testing::TempDir() + "/trace_format_test.trace";
  write_file(path, f);
  const TraceFile d = read_file(path);
  EXPECT_EQ(encode(d), encode(f));
  EXPECT_THROW(read_file(path + ".does-not-exist"), TraceError);
}

}  // namespace
}  // namespace dynreg::replay
