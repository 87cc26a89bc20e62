#include "txallo/engine/replay.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "txallo/common/sha256.h"

namespace txallo::engine {

namespace {

constexpr char kMagic[8] = {'T', 'X', 'T', 'R', 'A', 'C', 'E', '5'};
// The magic is followed by a u64 checksum of the body (every byte after the
// checksum): the first 8 bytes of its SHA-256. A trace with any changed body
// byte fails to load before a field is read.
constexpr size_t kChecksumBytes = 8;

// The trace format is defined here, once: each record type has one field
// list, in wire order, of (name, member, tag). The binary writer and reader,
// the CSV dump and the divergence report (and through it the replay guard)
// all walk these lists. The binary format carries every field; the tag
// decides where else a field goes.
enum Tag {
  // Re-derived by a replay: dumped to CSV and compared.
  kLogical,
  // Deterministic, but a replay copies it from the trace rather than
  // re-deriving it (no allocator runs on replay): dumped, never compared.
  kCopied,
  // A wall-clock observation, copied on replay too: binary only.
  kWall,
};

// Field lists are overloads on the record type: VisitFields(Of<T>{}, v).
template <typename Record>
using Of = std::type_identity<Record>;

template <typename V>
constexpr void VisitFields(Of<ReplayLog::Meta>, V&& v) {
  using M = ReplayLog::Meta;
  v("num_shards", &M::num_shards, kLogical);
  v("eta", &M::eta, kLogical);
  v("capacity_per_block", &M::capacity_per_block, kLogical);
  v("cross_shard_commit_rounds", &M::cross_shard_commit_rounds, kLogical);
  v("state_enabled", &M::state_enabled, kLogical);
  v("state_initial_balance", &M::state_initial_balance, kLogical);
  v("state_migration_work", &M::state_migration_work, kLogical);
  v("blocks_per_epoch", &M::blocks_per_epoch, kLogical);
  v("ledger_blocks", &M::ledger_blocks, kLogical);
  v("ledger_transactions", &M::ledger_transactions, kLogical);
  v("ledger_fingerprint", &M::ledger_fingerprint, kLogical);
  v("ingest_mode", &M::ingest_mode, kLogical);
  v("offered_load", &M::offered_load, kLogical);
  v("dispatch_per_tick", &M::dispatch_per_tick, kLogical);
  v("fee_levels", &M::fee_levels, kLogical);
  v("fee_seed", &M::fee_seed, kLogical);
  v("mempool_capacity", &M::mempool_capacity, kLogical);
  v("mempool_staging_capacity", &M::mempool_staging_capacity, kLogical);
  v("account_pending_limit", &M::account_pending_limit, kLogical);
  v("account_rate_limit", &M::account_rate_limit, kLogical);
  v("ttl_ticks", &M::ttl_ticks, kLogical);
  v("admission_policy", &M::admission_policy, kLogical);
  v("workload_spec", &M::workload_spec, kLogical);
}

// The log-level scalars, written right after the meta (and dumped as meta
// rows).
template <typename V>
constexpr void VisitFields(Of<ReplayLog>, V&& v) {
  v("alloc_seconds", &ReplayLog::alloc_seconds, kWall);
  v("alloc_wait_seconds", &ReplayLog::alloc_wait_seconds, kWall);
  v("alloc_overlap_ratio", &ReplayLog::alloc_overlap_ratio, kWall);
  v("epochs", &ReplayLog::epochs, kCopied);
  v("accounts_moved", &ReplayLog::accounts_moved, kLogical);
}

template <typename V>
constexpr void VisitFields(Of<PrepareEvent>, V&& v) {
  v("block", &PrepareEvent::block, kLogical);
  v("shard", &PrepareEvent::shard, kLogical);
  v("seq", &PrepareEvent::seq, kLogical);
}

template <typename V>
constexpr void VisitFields(Of<CommitEvent>, V&& v) {
  v("block", &CommitEvent::block, kLogical);
  v("seq", &CommitEvent::seq, kLogical);
  v("cross_shard", &CommitEvent::cross_shard, kLogical);
  v("aborted", &CommitEvent::aborted, kLogical);
}

template <typename V>
constexpr void VisitFields(Of<TickStateRoot>, V&& v) {
  v("block", &TickStateRoot::block, kLogical);
  v("root", &TickStateRoot::root, kLogical);
}

// The one variable-length record: the mapping goes on the wire as its
// account count, shard count and one u32 shard per account.
template <typename V>
constexpr void VisitFields(Of<InstallEvent>, V&& v) {
  v("block", &InstallEvent::block, kLogical);
  v("allocation", &InstallEvent::allocation, kLogical);
}

template <typename V>
constexpr void VisitFields(Of<StepMetrics>, V&& v) {
  using S = StepMetrics;
  v("step", &S::step, kLogical);
  v("first_block", &S::first_block, kLogical);
  v("last_block", &S::last_block, kLogical);
  v("submitted", &S::submitted, kLogical);
  v("committed", &S::committed, kLogical);
  v("cross_shard_submitted", &S::cross_shard_submitted, kLogical);
  v("throughput_per_block", &S::throughput_per_block, kLogical);
  v("cross_shard_ratio", &S::cross_shard_ratio, kLogical);
  v("alloc_seconds", &S::alloc_seconds, kWall);
  v("alloc_wait_seconds", &S::alloc_wait_seconds, kWall);
  v("installed", &S::installed, kLogical);
  v("aborted", &S::aborted, kLogical);
  v("accounts_migrated", &S::accounts_migrated, kLogical);
  v("offered", &S::offered, kLogical);
  v("admitted", &S::admitted, kLogical);
  v("admission_dropped", &S::admission_dropped, kLogical);
  v("mempool_depth", &S::mempool_depth, kLogical);
  v("mempool_peak_depth", &S::mempool_peak_depth, kLogical);
  v("latency_p50_ticks", &S::latency_p50_ticks, kLogical);
  v("latency_p99_ticks", &S::latency_p99_ticks, kLogical);
  v("latency_p999_ticks", &S::latency_p999_ticks, kLogical);
}

// Fewest wire bytes a field can take: a string's length prefix, an
// allocation's two counts.
template <typename T>
constexpr size_t MinWireBytes() {
  if constexpr (std::is_same_v<T, std::string>) return 8;
  if constexpr (std::is_same_v<T, alloc::Allocation>) return 8 + 4;
  return sizeof(T);
}

// Fewest wire bytes of one record, derived from its field list: the reader
// checks every count against it before resizing.
template <typename Record>
constexpr size_t MinRecordBytes() {
  size_t bytes = 0;
  VisitFields(Of<Record>{}, [&bytes](const char*, auto field, Tag) {
    bytes += MinWireBytes<
        std::remove_cvref_t<decltype(std::declval<Record&>().*field)>>();
  });
  return bytes;
}
// The TXTRACE5 record sizes: a list edit that moves one of these changes the
// format, which needs a magic bump and a regenerated golden fixture.
static_assert(MinRecordBytes<PrepareEvent>() == 20);
static_assert(MinRecordBytes<CommitEvent>() == 18);
static_assert(MinRecordBytes<TickStateRoot>() == 40);
static_assert(MinRecordBytes<InstallEvent>() == 20);
static_assert(MinRecordBytes<StepMetrics>() == 161);

// Appends one field: integers and flags as sizeof(T) little-endian bytes
// (explicit byte shuffling, not host memcpy, so a trace recorded on any
// platform loads on any other), doubles as their IEEE-754 bits, digests
// raw, strings as a u64 length plus the bytes.
template <typename T>
void Put(std::string* out, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    Put(out, static_cast<uint64_t>(v.size()));
    out->append(v);
  } else if constexpr (std::is_same_v<T, Sha256Digest>) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size());
  } else if constexpr (std::is_same_v<T, alloc::Allocation>) {
    Put(out, static_cast<uint64_t>(v.num_accounts()));
    Put(out, v.num_shards());
    for (alloc::ShardId shard : v.raw()) Put(out, shard);
  } else if constexpr (std::is_same_v<T, double>) {
    Put(out, std::bit_cast<uint64_t>(v));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out->push_back(
          static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) & 0xff));
    }
  }
}

template <typename Record>
void PutFields(std::string* out, const Record& record) {
  VisitFields(Of<Record>{},
              [&](const char*, auto field, Tag) { Put(out, record.*field); });
}

template <typename Record>
void PutStream(std::string* out, const std::vector<Record>& records) {
  Put(out, static_cast<uint64_t>(records.size()));
  for (const Record& record : records) PutFields(out, record);
}

// Consumes one field from the front of `in`; false when `in` is too short
// or the field is malformed. A length or count is checked against the bytes
// left before anything is allocated, and an installed shard against its
// mapping's shard count.
template <typename T>
bool Read(std::string_view* in, T* v) {
  if constexpr (std::is_same_v<T, std::string>) {
    uint64_t len = 0;
    if (!Read(in, &len) || len > in->size()) return false;
    v->assign(in->substr(0, static_cast<size_t>(len)));
    in->remove_prefix(static_cast<size_t>(len));
  } else if constexpr (std::is_same_v<T, Sha256Digest>) {
    if (in->size() < v->size()) return false;
    std::memcpy(v->data(), in->data(), v->size());
    in->remove_prefix(v->size());
  } else if constexpr (std::is_same_v<T, alloc::Allocation>) {
    uint64_t num_accounts = 0;
    uint32_t num_shards = 0;
    if (!Read(in, &num_accounts) || !Read(in, &num_shards) ||
        num_accounts > in->size() / sizeof(alloc::ShardId)) {
      return false;
    }
    *v = alloc::Allocation(num_accounts, num_shards);
    for (uint64_t a = 0; a < num_accounts; ++a) {
      alloc::ShardId shard = 0;
      if (!Read(in, &shard)) return false;
      if (shard == alloc::kUnassignedShard) continue;
      if (shard >= num_shards) return false;
      v->Assign(static_cast<chain::AccountId>(a), shard);
    }
  } else {
    if (in->size() < sizeof(T)) return false;
    uint64_t bits = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>((*in)[i])) << (8 * i);
    }
    in->remove_prefix(sizeof(T));
    if constexpr (std::is_same_v<T, double>) {
      *v = std::bit_cast<double>(bits);
    } else {
      *v = static_cast<T>(bits);
    }
  }
  return true;
}

template <typename Record>
bool ReadFields(std::string_view* in, Record* record) {
  bool ok = true;
  VisitFields(Of<Record>{}, [&](const char*, auto field, Tag) {
    ok = ok && Read(in, &(record->*field));
  });
  return ok;
}

template <typename Record>
bool ReadStream(std::string_view* in, std::vector<Record>* records) {
  uint64_t count = 0;
  if (!Read(in, &count) || count > in->size() / MinRecordBytes<Record>()) {
    return false;
  }
  records->resize(count);
  for (Record& record : *records) {
    if (!ReadFields(in, &record)) return false;
  }
  return true;
}

void HashU64(Sha256* hasher, uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (v >> (8 * i)) & 0xff;
  hasher->Update(bytes, sizeof(bytes));
}

// One field as text: flags and u8 enums as integers, digests as hex, a
// mapping summarized as "accounts,shards,content hash" (the binary trace
// is the machine-readable artifact), the rest as the stream prints them.
template <typename T>
void Print(std::ostream& os, const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, uint8_t>) {
    os << static_cast<uint32_t>(v);
  } else if constexpr (std::is_same_v<T, Sha256Digest>) {
    os << DigestToHex(v);
  } else if constexpr (std::is_same_v<T, alloc::Allocation>) {
    Sha256 hasher;
    for (alloc::ShardId shard : v.raw()) HashU64(&hasher, shard);
    os << v.num_accounts() << ',' << v.num_shards() << ','
       << DigestToHex(hasher.Finish()).substr(0, 16);
  } else {
    os << v;
  }
}

// CSV rows: one `meta,<name>,<value>` row per field of a meta-like record,
// or one `<kind>,<values...>` row per stream record. Wall fields are left
// out.
template <typename Record>
void DumpMetaRows(std::ostream& os, const Record& record) {
  VisitFields(Of<Record>{}, [&](const char* name, auto field, Tag tag) {
    if (tag == kWall) return;
    os << "meta," << name << ',';
    Print(os, record.*field);
    os << '\n';
  });
}

template <typename Record>
void DumpRows(std::ostream& os, const char* kind,
              const std::vector<Record>& records) {
  for (const Record& record : records) {
    os << kind;
    VisitFields(Of<Record>{}, [&](const char*, auto field, Tag tag) {
      if (tag == kWall) return;
      os << ',';
      Print(os, record.*field);
    });
    os << '\n';
  }
}

std::string U64(uint64_t v) { return std::to_string(v); }

// Round-trip precision, so two doubles that differ never read the same.
template <typename T>
std::string Text(const T& v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  Print(os, v);
  return os.str();
}

// "<label><name>: recorded X vs replayed Y" for the first logical field
// that differs, "" when none does.
template <typename Record>
std::string FirstDifference(const std::string& label, const Record& recorded,
                            const Record& replayed) {
  std::string out;
  VisitFields(Of<Record>{}, [&](const char* name, auto field, Tag tag) {
    if (out.empty() && tag == kLogical &&
        !(recorded.*field == replayed.*field)) {
      out = label + name + ": recorded " + Text(recorded.*field) +
            " vs replayed " + Text(replayed.*field);
    }
  });
  return out;
}

template <typename Record>
std::string StreamDifference(const std::string& kind,
                             const std::vector<Record>& recorded,
                             const std::vector<Record>& replayed) {
  if (recorded.size() != replayed.size()) {
    return kind + " count: recorded " + U64(recorded.size()) +
           " vs replayed " + U64(replayed.size());
  }
  for (size_t i = 0; i < recorded.size(); ++i) {
    // operator== is the fast path; it also sees the wall fields, which
    // FirstDifference skips.
    if (recorded[i] == replayed[i]) continue;
    std::string diff =
        FirstDifference(kind + "[" + U64(i) + "].", recorded[i], replayed[i]);
    if (!diff.empty()) return diff;
  }
  return "";
}

// The open-loop driving parameters a trace pins, each beside the
// OpenLoopConfig field it records: RunMeta copies them into the meta,
// ReplayRunConfig back out.
template <bool kIntoMeta, typename Meta, typename Config>
void CopyOpenLoop(Meta& meta, Config& config) {
  const auto copy = [](auto& meta_field, auto& config_field) {
    if constexpr (kIntoMeta) {
      meta_field = static_cast<std::remove_cvref_t<decltype(meta_field)>>(
          config_field);
    } else {
      config_field = static_cast<std::remove_cvref_t<decltype(config_field)>>(
          meta_field);
    }
  };
  copy(meta.offered_load, config.offered_load);
  copy(meta.dispatch_per_tick, config.dispatch_per_tick);
  copy(meta.fee_levels, config.fee_levels);
  copy(meta.fee_seed, config.fee_seed);
  copy(meta.mempool_capacity, config.mempool.capacity);
  copy(meta.mempool_staging_capacity, config.mempool.staging_capacity);
  copy(meta.account_pending_limit, config.mempool.account_pending_limit);
  copy(meta.account_rate_limit, config.mempool.account_rate_limit);
  copy(meta.ttl_ticks, config.mempool.ttl_ticks);
  copy(meta.admission_policy, config.mempool.policy);
}

}  // namespace

uint64_t FingerprintLedger(const chain::Ledger& ledger) {
  Sha256 hasher;
  HashU64(&hasher, ledger.num_blocks());
  for (const chain::Block& block : ledger.blocks()) {
    HashU64(&hasher, block.size());
    for (const chain::Transaction& tx : block.transactions()) {
      HashU64(&hasher, tx.inputs().size());
      for (chain::AccountId a : tx.inputs()) HashU64(&hasher, a);
      HashU64(&hasher, tx.outputs().size());
      for (chain::AccountId a : tx.outputs()) HashU64(&hasher, a);
    }
  }
  const Sha256Digest digest = hasher.Finish();
  uint64_t fingerprint = 0;
  for (int i = 0; i < 8; ++i) {
    fingerprint = (fingerprint << 8) | digest[static_cast<size_t>(i)];
  }
  return fingerprint;
}

std::string DescribeMetaDivergence(const ReplayLog::Meta& recorded,
                                   const ReplayLog::Meta& replayed) {
  return FirstDifference("meta.", recorded, replayed);
}

std::string DescribeTraceDivergence(const ReplayLog& recorded,
                                    const ReplayLog& replayed) {
  for (const std::string& diff :
       {DescribeMetaDivergence(recorded.meta, replayed.meta),
        StreamDifference("prepare", recorded.prepares, replayed.prepares),
        StreamDifference("commit", recorded.commits, replayed.commits),
        StreamDifference("state_root", recorded.state_roots,
                         replayed.state_roots),
        StreamDifference("install", recorded.installs, replayed.installs),
        StreamDifference("step", recorded.steps, replayed.steps),
        FirstDifference("", recorded, replayed)}) {
    if (!diff.empty()) return diff;
  }
  return "";
}

ReplayLog::Meta RunMeta(const EngineConfig& engine,
                        const PipelineConfig& config,
                        const chain::Ledger& ledger) {
  ReplayLog::Meta meta;
  meta.num_shards = engine.num_shards;
  meta.eta = engine.work.eta;
  meta.capacity_per_block = engine.work.capacity_per_block;
  meta.cross_shard_commit_rounds = engine.work.cross_shard_commit_rounds;
  // Settings the run ignores stay zero, so two metas can only differ in a
  // value that changed what ran.
  meta.state_enabled = engine.state.enabled;
  if (engine.state.enabled) {
    meta.state_initial_balance = engine.state.initial_balance;
    meta.state_migration_work = engine.state.migration_work_per_account;
  }
  meta.blocks_per_epoch = config.blocks_per_epoch;
  meta.ledger_blocks = ledger.num_blocks();
  meta.ledger_transactions = ledger.num_transactions();
  meta.ledger_fingerprint = FingerprintLedger(ledger);
  meta.ingest_mode = static_cast<uint8_t>(config.ingest_mode);
  if (config.ingest_mode == IngestMode::kOpenLoop) {
    CopyOpenLoop</*kIntoMeta=*/true>(meta, config.open_loop);
  }
  meta.workload_spec = config.workload_spec;
  return meta;
}

PipelineConfig ReplayRunConfig(const ReplayLog::Meta& meta,
                               PipelineConfig config) {
  config.blocks_per_epoch = meta.blocks_per_epoch;
  config.ingest_mode = static_cast<IngestMode>(meta.ingest_mode);
  if (config.ingest_mode == IngestMode::kOpenLoop) {
    CopyOpenLoop</*kIntoMeta=*/false>(meta, config.open_loop);
  }
  if (config.workload_spec.empty()) config.workload_spec = meta.workload_spec;
  return config;
}

namespace {

// One shard's prepare subsequence, in stream order. The global stream is
// canonically (block, shard, lane-position) sorted, so the per-shard
// subsequence IS that shard's execution order.
std::vector<std::vector<PrepareEvent>> SplitLanes(const ReplayLog& log) {
  uint32_t num_shards = log.meta.num_shards;
  for (const PrepareEvent& event : log.prepares) {
    // Tolerate hand-built logs whose meta was never filled in.
    if (event.shard >= num_shards) num_shards = event.shard + 1;
  }
  std::vector<std::vector<PrepareEvent>> lanes(num_shards);
  for (const PrepareEvent& event : log.prepares) {
    lanes[event.shard].push_back(event);
  }
  return lanes;
}

std::string LaneEntry(const std::vector<PrepareEvent>& lane, size_t i) {
  if (i >= lane.size()) return "(--, --)";
  return "(" + U64(lane[i].block) + ", " + U64(lane[i].seq) + ")";
}

void PadTo(std::string* line, size_t width) {
  while (line->size() < width) line->push_back(' ');
}

}  // namespace

std::string DescribeLaneDivergence(const ReplayLog& recorded,
                                   const ReplayLog& replayed,
                                   size_t context) {
  std::vector<std::vector<PrepareEvent>> rec = SplitLanes(recorded);
  std::vector<std::vector<PrepareEvent>> rep = SplitLanes(replayed);
  const size_t num_lanes = std::max(rec.size(), rep.size());
  rec.resize(num_lanes);
  rep.resize(num_lanes);

  std::string out;
  for (size_t shard = 0; shard < num_lanes; ++shard) {
    const std::vector<PrepareEvent>& a = rec[shard];
    const std::vector<PrepareEvent>& b = rep[shard];
    const size_t longest = std::max(a.size(), b.size());
    size_t first = longest;
    for (size_t i = 0; i < longest; ++i) {
      if (i >= a.size() || i >= b.size() || !(a[i] == b[i])) {
        first = i;
        break;
      }
    }
    if (first == longest) continue;  // Lane matches entry for entry.

    if (!out.empty()) out += "\n";
    out += "lane shard=" + U64(shard) + ": first divergence at pos " +
           U64(first) + " (recorded tick " +
           (first < a.size() ? U64(a[first].block) : std::string("--")) +
           ", replayed tick " +
           (first < b.size() ? U64(b[first].block) : std::string("--")) +
           ")\n";
    out += "      pos   recorded(block, seq)    replayed(block, seq)\n";
    const size_t lo = first > context ? first - context : 0;
    const size_t hi = std::min(longest, first + context + 1);
    for (size_t i = lo; i < hi; ++i) {
      const bool divergent =
          i >= a.size() || i >= b.size() || !(a[i] == b[i]);
      std::string line = divergent ? "    > " : "      ";
      line += U64(i);
      PadTo(&line, 12);
      line += LaneEntry(a, i);
      PadTo(&line, 36);
      line += LaneEntry(b, i);
      out += line + "\n";
    }
  }
  return out;
}

Result<PipelineResult> ReplayRecordedStream(const chain::Ledger& ledger,
                                            const ReplayLog& log,
                                            ParallelEngine* engine,
                                            const PipelineConfig& config) {
  PipelineConfig replay_config = config;
  replay_config.replay = &log;
  return RunReallocatedStream(ledger, nullptr, engine, replay_config);
}

Status SaveReplayLog(const ReplayLog& log, const std::string& path) {
  std::string body;
  PutFields(&body, log.meta);
  PutFields(&body, log);
  PutStream(&body, log.prepares);
  PutStream(&body, log.commits);
  PutStream(&body, log.state_roots);
  PutStream(&body, log.installs);
  PutStream(&body, log.steps);
  std::string out(kMagic, sizeof(kMagic));
  Put(&out, Sha256::Hash64(body));
  out += body;
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  file.flush();
  if (!file.good()) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<ReplayLog> LoadReplayLog(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IOError("cannot open trace '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string data = std::move(buffer).str();
  if (data.size() < sizeof(kMagic) + kChecksumBytes ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("'" + path +
                              "' is not a TXTRACE5 replay trace");
  }
  std::string_view in = std::string_view(data).substr(sizeof(kMagic));
  uint64_t checksum = 0;
  Read(&in, &checksum);
  if (checksum != Sha256::Hash64(in)) {
    return Status::Corruption("trace '" + path +
                              "' fails its body checksum");
  }
  ReplayLog log;
  const bool ok = ReadFields(&in, &log.meta) && ReadFields(&in, &log) &&
                  ReadStream(&in, &log.prepares) &&
                  ReadStream(&in, &log.commits) &&
                  ReadStream(&in, &log.state_roots) &&
                  ReadStream(&in, &log.installs) &&
                  ReadStream(&in, &log.steps);
  if (!ok || !in.empty()) {
    return Status::Corruption("trace '" + path +
                              "' is truncated or corrupt");
  }
  return log;
}

Status DumpReplayLogCsv(const ReplayLog& log, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  file << "kind,a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s\n";
  DumpMetaRows(file, log.meta);
  DumpMetaRows(file, log);
  DumpRows(file, "step", log.steps);
  DumpRows(file, "install", log.installs);
  DumpRows(file, "prepare", log.prepares);
  DumpRows(file, "commit", log.commits);
  DumpRows(file, "state_root", log.state_roots);
  file.flush();
  if (!file.good()) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace txallo::engine
