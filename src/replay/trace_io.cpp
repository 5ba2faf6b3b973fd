#include "replay/trace_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

namespace dynreg::replay {

namespace {

// ---------------------------------------------------------------- encoding

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// LEB128: 7 value bits per byte, high bit = continuation.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_double(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked cursor over the byte buffer. Every read validates the
/// remaining length first; violations throw TraceError naming the offset.
class Reader {
 public:
  Reader(const std::vector<std::uint8_t>& bytes, std::size_t pos)
      : bytes_(&bytes), pos_(pos) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_->size() - pos_; }

  std::uint8_t u8() {
    need(1, "byte");
    return (*bytes_)[pos_++];
  }

  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{(*bytes_)[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{(*bytes_)[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1, "varint");
      const std::uint8_t byte = (*bytes_)[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical bits beyond 64 (shift 63 leaves 1 usable bit).
        if (shift == 63 && (byte & 0x7e) != 0) fail("varint overflows 64 bits");
        return v;
      }
    }
    fail("varint longer than 10 bytes");
    return 0;  // unreachable
  }

  double dbl() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint64_t len = varint();
    need(len, "string body");
    std::string s(reinterpret_cast<const char*>(bytes_->data()) + pos_,
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  void need(std::uint64_t n, const char* what) const {
    if (n > remaining()) {
      fail(std::string("truncated: need ") + what + " at offset " +
           std::to_string(pos_));
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw TraceError("trace decode error at offset " + std::to_string(pos_) + ": " + why);
  }

 private:
  const std::vector<std::uint8_t>* bytes_;  // pointer: Reader is reassignable
  std::size_t pos_;
};

std::uint8_t enum_u8(Reader& r, std::uint8_t max, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > max) r.fail(std::string("bad ") + what + " tag " + std::to_string(v));
  return v;
}

std::optional<sim::Duration> get_opt_duration(Reader& r) {
  if (r.u8() == 0) return std::nullopt;
  return static_cast<sim::Duration>(r.varint());
}

void put_opt_duration(std::vector<std::uint8_t>& out,
                      const std::optional<sim::Duration>& v) {
  put_u8(out, v.has_value() ? 1 : 0);
  if (v.has_value()) put_varint(out, *v);
}

// ------------------------------------------------------------ trace bodies

void encode_trace(const Trace& t, std::vector<std::uint8_t>& out) {
  put_varint(out, t.fingerprint);
  put_varint(out, t.seed);
  put_u64(out, t.recorded_hash);
  put_u8(out, t.churn_loop ? 1 : 0);

  put_varint(out, t.net.size());
  sim::Time prev = 0;
  for (const NetRecord& r : t.net) {
    put_varint(out, r.time - prev);  // streams are recorded in time order
    prev = r.time;
    put_varint(out, r.from);
    put_varint(out, r.to);
    put_varint(out, r.type);
    put_u8(out, r.lost ? 1 : 0);
    if (!r.lost) put_varint(out, r.delay);
  }

  put_varint(out, t.churn.size());
  prev = 0;
  for (const ChurnRecord& r : t.churn) {
    put_varint(out, r.time - prev);
    prev = r.time;
    put_u8(out, r.join ? 1 : 0);
    if (!r.join) put_varint(out, r.victim);
    put_varint(out, r.shard);  // v4: joins need routing too, so every record
  }

  put_varint(out, t.picks.size());
  prev = 0;
  for (const PickRecord& r : t.picks) {
    put_varint(out, r.time - prev);
    prev = r.time;
    put_varint(out, r.chosen);
  }

  put_varint(out, t.faults.size());
  prev = 0;
  for (const FaultRecord& r : t.faults) {
    put_varint(out, r.time - prev);
    prev = r.time;
    put_varint(out, r.value);
  }
}

Trace decode_trace(Reader& r, std::uint32_t version) {
  Trace t;
  t.fingerprint = r.varint();
  t.seed = r.varint();
  t.recorded_hash = r.u64();
  // An older build dispatched a different event stream for the same run, so
  // its recorded hash cannot match a replay by this one; 0 tells replay to
  // skip the check.
  if (version < kTraceVersion) t.recorded_hash = 0;
  t.churn_loop = r.u8() != 0;

  // Counts are not trusted for allocation: each record consumes bytes, so a
  // lying count hits a truncation error before the vector outgrows the file.
  std::uint64_t count = r.varint();
  if (count > r.remaining()) r.fail("net record count exceeds file size");
  sim::Time prev = 0;
  t.net.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    NetRecord rec;
    prev += r.varint();
    rec.time = prev;
    rec.from = static_cast<sim::ProcessId>(r.varint());
    rec.to = static_cast<sim::ProcessId>(r.varint());
    rec.type = static_cast<net::PayloadTypeId>(r.varint());
    rec.lost = r.u8() != 0;
    rec.delay = rec.lost ? 0 : static_cast<sim::Duration>(r.varint());
    t.net.push_back(rec);
  }

  count = r.varint();
  if (count > r.remaining()) r.fail("churn record count exceeds file size");
  prev = 0;
  t.churn.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ChurnRecord rec;
    prev += r.varint();
    rec.time = prev;
    rec.join = r.u8() != 0;
    rec.victim = rec.join ? 0 : static_cast<sim::ProcessId>(r.varint());
    rec.shard = static_cast<std::uint32_t>(r.varint());
    t.churn.push_back(rec);
  }

  count = r.varint();
  if (count > r.remaining()) r.fail("pick record count exceeds file size");
  prev = 0;
  t.picks.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    PickRecord rec;
    prev += r.varint();
    rec.time = prev;
    rec.chosen = static_cast<sim::ProcessId>(r.varint());
    t.picks.push_back(rec);
  }

  count = r.varint();
  if (count > r.remaining()) r.fail("fault record count exceeds file size");
  prev = 0;
  t.faults.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    FaultRecord rec;
    prev += r.varint();
    rec.time = prev;
    rec.value = r.varint();
    t.faults.push_back(rec);
  }
  return t;
}

/// fold64 over the buffer, 8 bytes at a time (zero-padded tail), length
/// folded in last so appended zero bytes change the digest.
std::uint64_t checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0x445254522d763101ULL;  // "DRTR-v1" + 0x01
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, data + i, 8);
    h = fold64(h, chunk);
  }
  if (i < size) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, data + i, size - i);
    h = fold64(h, chunk);
  }
  return fold64(h, size);
}

}  // namespace

void encode_config(const harness::ExperimentConfig& cfg, std::vector<std::uint8_t>& out) {
  put_u8(out, static_cast<std::uint8_t>(cfg.protocol));
  put_u8(out, static_cast<std::uint8_t>(cfg.timing));
  put_varint(out, cfg.n);
  put_varint(out, cfg.delta);
  put_varint(out, cfg.duration);
  put_varint(out, cfg.seed);
  put_u8(out, static_cast<std::uint8_t>(cfg.churn_kind));
  put_double(out, cfg.churn_rate);
  put_u8(out, static_cast<std::uint8_t>(cfg.leave_policy));
  put_varint(out, cfg.gst);
  put_varint(out, cfg.pre_gst_max);
  put_double(out, cfg.loss_rate);
  put_u8(out, cfg.es_atomic_reads ? 1 : 0);
  put_opt_duration(out, cfg.sync_delta_pp);
  put_opt_duration(out, cfg.sync_refresh_interval);
  put_u8(out, static_cast<std::uint8_t>(cfg.workload.kind));
  put_varint(out, cfg.workload.read_interval);
  put_varint(out, cfg.workload.write_interval);
  put_u8(out, cfg.workload.writes_enabled ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(cfg.workload.writer_mode));
  put_varint(out, cfg.workload.concurrent_writers);
  put_varint(out, cfg.workload.clients);
  put_varint(out, cfg.workload.think_time);
  put_varint(out, cfg.workload.burst_on);
  put_varint(out, cfg.workload.burst_off);
  put_u8(out, static_cast<std::uint8_t>(cfg.dissemination));
  put_varint(out, cfg.tree_fanout);
  // Format v3 appendix: per-op client policy, ES hardening, fault::Plan.
  put_varint(out, cfg.workload.op_deadline);
  put_varint(out, cfg.workload.retry_max_attempts);
  put_varint(out, cfg.workload.retry_backoff);
  put_u8(out, cfg.workload.retry_exponential ? 1 : 0);
  put_u8(out, cfg.es_retransmit_backoff ? 1 : 0);
  put_u8(out, cfg.es_validate_replies ? 1 : 0);
  put_double(out, cfg.fault.crash.rate);
  put_double(out, cfg.fault.crash.recover_fraction);
  put_varint(out, cfg.fault.crash.recovery_delay);
  put_u8(out, static_cast<std::uint8_t>(cfg.fault.crash.restart));
  put_double(out, cfg.fault.partition.rate);
  put_varint(out, cfg.fault.partition.duration);
  put_double(out, cfg.fault.partition.fraction);
  put_u8(out, cfg.fault.partition.asymmetric ? 1 : 0);
  put_double(out, cfg.fault.byzantine.fraction);
  put_double(out, cfg.fault.byzantine.transform_rate);
  put_u8(out, static_cast<std::uint8_t>((cfg.fault.byzantine.equivocate ? 1 : 0) |
                                        (cfg.fault.byzantine.stale_replay ? 2 : 0) |
                                        (cfg.fault.byzantine.forge ? 4 : 0) |
                                        (cfg.fault.byzantine.corrupt ? 8 : 0)));
  put_varint(out, cfg.fault.tick);
  // Format v4 appendix: the shard layer and the keyed workload. (The
  // chronicle_aggregate flag is deliberately NOT encoded: it changes memory
  // accounting only, never results, so it must not split fingerprints.)
  put_varint(out, cfg.shard_count);
  put_varint(out, cfg.workload.key_count);
  put_double(out, cfg.workload.zipf_s);
  put_double(out, cfg.workload.read_frac);
  put_varint(out, cfg.workload.storm_every);
  put_varint(out, cfg.workload.storm_len);
}

harness::ExperimentConfig decode_config(const std::vector<std::uint8_t>& bytes,
                                        std::size_t& pos) {
  Reader r(bytes, pos);
  harness::ExperimentConfig cfg;
  cfg.protocol = static_cast<harness::Protocol>(enum_u8(r, 3, "protocol"));
  cfg.timing = static_cast<harness::Timing>(enum_u8(r, 1, "timing"));
  cfg.n = static_cast<std::size_t>(r.varint());
  cfg.delta = static_cast<sim::Duration>(r.varint());
  cfg.duration = static_cast<sim::Time>(r.varint());
  cfg.seed = r.varint();
  cfg.churn_kind = static_cast<harness::ChurnKind>(enum_u8(r, 1, "churn kind"));
  cfg.churn_rate = r.dbl();
  cfg.leave_policy = static_cast<churn::LeavePolicy>(enum_u8(r, 1, "leave policy"));
  cfg.gst = static_cast<sim::Time>(r.varint());
  cfg.pre_gst_max = static_cast<sim::Duration>(r.varint());
  cfg.loss_rate = r.dbl();
  cfg.es_atomic_reads = r.u8() != 0;
  cfg.sync_delta_pp = get_opt_duration(r);
  cfg.sync_refresh_interval = get_opt_duration(r);
  cfg.workload.kind = static_cast<workload::Kind>(enum_u8(r, 2, "workload kind"));
  cfg.workload.read_interval = static_cast<sim::Duration>(r.varint());
  cfg.workload.write_interval = static_cast<sim::Duration>(r.varint());
  cfg.workload.writes_enabled = r.u8() != 0;
  cfg.workload.writer_mode = static_cast<workload::WriterMode>(enum_u8(r, 1, "writer mode"));
  cfg.workload.concurrent_writers = static_cast<std::size_t>(r.varint());
  cfg.workload.clients = static_cast<std::size_t>(r.varint());
  cfg.workload.think_time = static_cast<sim::Duration>(r.varint());
  cfg.workload.burst_on = static_cast<sim::Duration>(r.varint());
  cfg.workload.burst_off = static_cast<sim::Duration>(r.varint());
  cfg.dissemination =
      static_cast<harness::Dissemination>(enum_u8(r, 1, "dissemination"));
  cfg.tree_fanout = static_cast<std::size_t>(r.varint());
  cfg.workload.op_deadline = static_cast<sim::Duration>(r.varint());
  cfg.workload.retry_max_attempts = static_cast<std::uint32_t>(r.varint());
  cfg.workload.retry_backoff = static_cast<sim::Duration>(r.varint());
  cfg.workload.retry_exponential = r.u8() != 0;
  cfg.es_retransmit_backoff = r.u8() != 0;
  cfg.es_validate_replies = r.u8() != 0;
  cfg.fault.crash.rate = r.dbl();
  cfg.fault.crash.recover_fraction = r.dbl();
  cfg.fault.crash.recovery_delay = static_cast<sim::Duration>(r.varint());
  cfg.fault.crash.restart =
      static_cast<fault::RestartState>(enum_u8(r, 1, "restart state"));
  cfg.fault.partition.rate = r.dbl();
  cfg.fault.partition.duration = static_cast<sim::Duration>(r.varint());
  cfg.fault.partition.fraction = r.dbl();
  cfg.fault.partition.asymmetric = r.u8() != 0;
  cfg.fault.byzantine.fraction = r.dbl();
  cfg.fault.byzantine.transform_rate = r.dbl();
  const std::uint8_t byz_kinds = enum_u8(r, 15, "byzantine kinds");
  cfg.fault.byzantine.equivocate = (byz_kinds & 1) != 0;
  cfg.fault.byzantine.stale_replay = (byz_kinds & 2) != 0;
  cfg.fault.byzantine.forge = (byz_kinds & 4) != 0;
  cfg.fault.byzantine.corrupt = (byz_kinds & 8) != 0;
  cfg.fault.tick = static_cast<sim::Duration>(r.varint());
  cfg.shard_count = static_cast<std::size_t>(r.varint());
  cfg.workload.key_count = static_cast<std::size_t>(r.varint());
  cfg.workload.zipf_s = r.dbl();
  cfg.workload.read_frac = r.dbl();
  cfg.workload.storm_every = static_cast<sim::Duration>(r.varint());
  cfg.workload.storm_len = static_cast<sim::Duration>(r.varint());
  pos = r.pos();
  return cfg;
}

std::uint64_t fingerprint(const harness::ExperimentConfig& cfg) {
  harness::ExperimentConfig keyed = cfg;
  keyed.seed = 0;  // traces are keyed (fingerprint, seed); keep them orthogonal
  std::vector<std::uint8_t> bytes;
  encode_config(keyed, bytes);
  const std::uint64_t h = checksum(bytes.data(), bytes.size());
  return h == 0 ? 1 : h;
}

std::vector<std::uint8_t> encode(const TraceFile& file) {
  std::vector<std::uint8_t> out;
  put_u32(out, kTraceMagic);
  put_u32(out, kTraceVersion);
  put_string(out, file.experiment);
  put_varint(out, file.seeds.size());
  for (const std::uint64_t s : file.seeds) put_varint(out, s);
  put_u8(out, file.config.has_value() ? 1 : 0);
  if (file.config.has_value()) encode_config(*file.config, out);
  put_varint(out, file.traces.size());
  for (const Trace& t : file.traces) encode_trace(t, out);
  put_u64(out, checksum(out.data(), out.size()));
  return out;
}

TraceFile decode(const std::vector<std::uint8_t>& bytes) {
  Reader header(bytes, 0);
  const std::uint32_t magic = header.u32();
  if (magic != kTraceMagic) {
    throw TraceError("not a dynreg trace file (bad magic 0x" + [magic] {
      char buf[9];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }() + ", expected DRTR)");
  }
  const std::uint32_t version = header.u32();
  if (version < kOldestTraceVersion || version > kTraceVersion) {
    throw TraceError("unsupported trace format version " + std::to_string(version) +
                     " (this build reads versions " + std::to_string(kOldestTraceVersion) +
                     " to " + std::to_string(kTraceVersion) + ")");
  }
  if (bytes.size() < 16) throw TraceError("truncated: no room for checksum");
  Reader tail(bytes, bytes.size() - 8);
  const std::uint64_t stored = tail.u64();
  const std::uint64_t actual = checksum(bytes.data(), bytes.size() - 8);
  if (stored != actual) {
    throw TraceError("checksum mismatch: file is corrupted (stored " +
                     std::to_string(stored) + ", computed " + std::to_string(actual) + ")");
  }

  TraceFile file;
  file.experiment = header.str();
  const std::uint64_t seed_count = header.varint();
  if (seed_count > header.remaining()) header.fail("seed count exceeds file size");
  file.seeds.reserve(static_cast<std::size_t>(seed_count));
  for (std::uint64_t i = 0; i < seed_count; ++i) file.seeds.push_back(header.varint());
  if (header.u8() != 0) {
    std::size_t pos = header.pos();
    file.config = decode_config(bytes, pos);
    header = Reader(bytes, pos);
  }
  const std::uint64_t trace_count = header.varint();
  if (trace_count > header.remaining()) header.fail("trace count exceeds file size");
  file.traces.reserve(static_cast<std::size_t>(trace_count));
  for (std::uint64_t i = 0; i < trace_count; ++i) {
    file.traces.push_back(decode_trace(header, version));
  }
  return file;
}

void write_file(const std::string& path, const TraceFile& file) {
  const std::vector<std::uint8_t> bytes = encode(file);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw TraceError("short write to '" + path + "'");
}

TraceFile read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) throw TraceError("read error on '" + path + "'");
  return decode(bytes);
}

}  // namespace dynreg::replay
