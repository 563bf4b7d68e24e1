#include "core/stream_checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <streambuf>

#include "util/bytes.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/logging.h"

namespace cextend {
namespace {

constexpr char kManifestMagic[4] = {'C', 'X', 'M', 'F'};
constexpr uint32_t kManifestVersion = 1;
/// magic + version + plan digest + shard count.
constexpr size_t kFileHeaderBytes = 4 + 4 + 8 + 8;
/// kind + shard id + end offset + range checksum + next key + rows + tuples
/// + color count (colors and the trailing record checksum follow).
constexpr size_t kRecordFixedBytes = 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4;
constexpr size_t kColorBytes = 4 + 8;
/// Buffered appends spill to the fd past this size.
constexpr size_t kBufferSpill = size_t{1} << 16;
/// Replay hands the sink synthetic shards of at most this many records.
constexpr size_t kReplayChunkRecords = size_t{1} << 16;

/// Keeps nothing: the sink of a finished run resumed without a tee.
class DiscardSink : public RowSink {
 public:
  Status Consume(const ResolvedShard& /*shard*/) override {
    return Status::Ok();
  }
};

/// The FNV-1a hash of `n` bytes at `data`, xor `salt`, mixed.
uint64_t Checksum(const char* data, size_t n, uint64_t salt) {
  return MixHash64(0, Fnv1a(kFnv1aBasis, data, n) ^ salt);
}

}  // namespace

uint64_t PlanDigest(const SynthesisPlan& plan) {
  const std::string bytes = plan.Serialize();
  return Checksum(bytes.data(), bytes.size(), bytes.size());
}

// ---- DurableFile ----

/// ostream adapter: every character reaches Append, so the fault sites and
/// the short-write checks cover text emitters too. A failed append returns
/// eof/0, which makes the ostream set badbit — the sink's error channel.
class DurableFile::Buf : public std::streambuf {
 public:
  explicit Buf(DurableFile* file) : file_(file) {}

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return sync();
    char c = static_cast<char>(ch);
    return file_->Append(&c, 1).ok() ? ch : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return file_->Append(s, static_cast<size_t>(n)).ok() ? n : 0;
  }
  int sync() override { return file_->FlushBuffer().ok() ? 0 : -1; }

 private:
  DurableFile* file_;
};

DurableFile::DurableFile(int fd, std::string path, uint64_t offset)
    : fd_(fd),
      path_(std::move(path)),
      offset_(offset),
      range_fnv_(kFnv1aBasis),
      buf_(new Buf(this)),
      stream_(buf_.get()) {
  buffer_.reserve(kBufferSpill);
}

DurableFile::~DurableFile() {
  // No flush: an unsynced buffered tail is exactly the torn tail a resume
  // truncates, and every success path ends with an explicit Sync.
  ::close(fd_);
}

StatusOr<std::unique_ptr<DurableFile>> DurableFile::Create(
    const std::string& path) {
  int fd = ::open(path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open(" + path +
                            ") failed: " + std::strerror(errno));
  }
  return std::unique_ptr<DurableFile>(new DurableFile(fd, path, 0));
}

StatusOr<std::unique_ptr<DurableFile>> DurableFile::OpenAt(
    const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("open(" + path +
                            ") failed: " + std::strerror(errno));
  }
  // Trim any torn tail past the committed offset and make the cut durable
  // before a single new byte is appended.
  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0 || ::fsync(fd) != 0) {
    Status st = Status::Internal("truncate(" + path + ", " +
                                 std::to_string(offset) +
                                 ") failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<DurableFile>(new DurableFile(fd, path, offset));
}

Status DurableFile::WriteToFd(const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    ssize_t w = ::write(fd_, data + written, n - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      io_status_ = Status::Internal("write(" + path_ +
                                    ") failed: " + std::strerror(errno));
      return io_status_;
    }
    written += static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status DurableFile::FlushBuffer() {
  if (!io_status_.ok()) return io_status_;
  if (buffer_.empty()) return Status::Ok();
  CEXTEND_RETURN_IF_ERROR(WriteToFd(buffer_.data(), buffer_.size()));
  buffer_.clear();
  return Status::Ok();
}

Status DurableFile::Append(const char* data, size_t n) {
  if (!io_status_.ok()) return io_status_;
  if (CEXTEND_INJECT_FAULT("sink.write")) {
    io_status_ = Status::Internal("injected fault: sink.write on " + path_);
    return io_status_;
  }
  if (CEXTEND_INJECT_FAULT("sink.torn_write")) {
    // Half the payload reaches the file: a torn record past the committed
    // offset, which a resume must truncate away.
    Status torn = FlushBuffer();
    if (torn.ok() && n > 1) torn = WriteToFd(data, n / 2);
    io_status_ = Status::Internal(
        "injected fault: sink.torn_write after " + std::to_string(n / 2) +
        "/" + std::to_string(n) + " bytes on " + path_ +
        (torn.ok() ? "" : "; " + torn.message()));
    return io_status_;
  }
  buffer_.append(data, n);
  offset_ += n;
  range_fnv_ = Fnv1a(range_fnv_, data, n);
  if (buffer_.size() >= kBufferSpill) return FlushBuffer();
  return Status::Ok();
}

Status DurableFile::Sync() {
  if (!io_status_.ok()) return io_status_;
  if (CEXTEND_INJECT_FAULT("sink.flush")) {
    io_status_ = Status::Internal("injected fault: sink.flush on " + path_);
    return io_status_;
  }
  CEXTEND_RETURN_IF_ERROR(FlushBuffer());
  if (::fsync(fd_) != 0) {
    io_status_ = Status::Internal("fsync(" + path_ +
                                  ") failed: " + std::strerror(errno));
    return io_status_;
  }
  return Status::Ok();
}

uint64_t DurableFile::TakeRangeChecksum() {
  uint64_t h = range_fnv_;
  range_fnv_ = kFnv1aBasis;
  return h;
}

// ---- DurableStreamSink ----

DurableStreamSink::DurableStreamSink(RowSink* inner, DurableFile* data,
                                     DurableFile* manifest,
                                     const PreparedPlan& prepared,
                                     const StreamResumePoint* resume)
    : inner_(inner),
      data_(data),
      manifest_(manifest),
      prepared_(prepared),
      is_repair_partition_(RepairPartitionFlags(prepared)),
      resumed_(resume != nullptr && resume->header_committed),
      record_index_(resumed_ ? resume->num_records : 0),
      next_key_(resumed_ ? resume->next_key : prepared.fresh_base),
      rows_written_(resumed_ ? resume->rows_written : 0),
      tuples_written_(resumed_ ? resume->tuples_written : 0),
      plan_digest_(PlanDigest(*prepared.plan)) {}

Status DurableStreamSink::Enrich(Status st) const {
  if (st.ok() || data_->io_status().ok()) return st;
  return Status(data_->io_status().code(),
                st.message() + "; " + data_->io_status().message());
}

Status DurableStreamSink::CommitRecord(
    uint32_t kind, uint64_t shard_id,
    const std::vector<std::pair<uint32_t, int64_t>>& colors) {
  if (CEXTEND_INJECT_FAULT("manifest.commit")) {
    return Status::Internal("injected fault: manifest.commit (record " +
                            std::to_string(record_index_) + ", shard " +
                            std::to_string(shard_id) + ")");
  }
  std::string body;
  body.reserve(kRecordFixedBytes + colors.size() * kColorBytes + 8);
  PutU32(&body, kind);
  PutU64(&body, shard_id);
  PutU64(&body, data_->offset());
  PutU64(&body, data_->TakeRangeChecksum());
  PutI64(&body, next_key_);
  PutU64(&body, rows_written_);
  PutU64(&body, tuples_written_);
  PutU32(&body, static_cast<uint32_t>(colors.size()));
  for (const auto& c : colors) {
    PutU32(&body, c.first);
    PutI64(&body, c.second);
  }
  PutU64(&body,
         Checksum(body.data(), body.size(), plan_digest_ ^ record_index_));
  CEXTEND_RETURN_IF_ERROR(manifest_->Append(body.data(), body.size()));
  CEXTEND_RETURN_IF_ERROR(manifest_->Sync());
  ++record_index_;
  ++commits_;
  return Status::Ok();
}

Status DurableStreamSink::Begin(const PreparedPlan& prepared) {
  if (resumed_) return Status::Ok();  // header already durable
  std::string header;
  header.append(kManifestMagic, 4);
  PutU32(&header, kManifestVersion);
  PutU64(&header, plan_digest_);
  PutU64(&header, prepared.plan->num_shards());
  CEXTEND_RETURN_IF_ERROR(manifest_->Append(header.data(), header.size()));
  CEXTEND_RETURN_IF_ERROR(Enrich(inner_->Begin(prepared)));
  CEXTEND_RETURN_IF_ERROR(data_->Sync());
  return CommitRecord(0, 0, {});
}

Status DurableStreamSink::Consume(const ResolvedShard& shard) {
  CEXTEND_RETURN_IF_ERROR(Enrich(inner_->Consume(shard)));
  std::vector<std::pair<uint32_t, int64_t>> colors;
  for (const ResolvedShard::Block& block : shard.blocks) {
    rows_written_ += block.rows.size();
    for (const ResolvedShard::NewTuple& t : block.new_tuples) {
      next_key_ = t.key + 1;  // keys ascend within and across blocks
      ++tuples_written_;
    }
    if (block.worklist_idx == ResolvedShard::kRepairBlock) continue;
    size_t partition = prepared_.worklist[block.worklist_idx];
    if (!is_repair_partition_[partition]) continue;
    for (ShardRow r : block.rows) colors.emplace_back(r.row, r.key);
  }
  CEXTEND_RETURN_IF_ERROR(data_->Sync());
  return CommitRecord(1, shard.shard_id, colors);
}

Status DurableStreamSink::Finish() {
  CEXTEND_RETURN_IF_ERROR(Enrich(inner_->Finish()));
  CEXTEND_RETURN_IF_ERROR(data_->Sync());
  return CommitRecord(2, 0, {});
}

// ---- LoadResumePoint ----

StatusOr<StreamResumePoint> LoadResumePoint(const std::string& stream_path,
                                            const std::string& manifest_path,
                                            const SynthesisPlan& plan) {
  StreamResumePoint rp;
  std::ifstream manifest(manifest_path, std::ios::binary);
  if (!manifest.is_open()) return rp;  // no manifest yet: fresh run
  std::string bytes((std::istreambuf_iterator<char>(manifest)),
                    std::istreambuf_iterator<char>());
  manifest.close();
  // A torn *file header* carries no commitments; start fresh. A complete
  // header that names a different plan is a caller error, not a torn tail.
  if (bytes.size() < kFileHeaderBytes) return rp;
  if (std::memcmp(bytes.data(), kManifestMagic, 4) != 0) {
    return Status::InvalidArgument(manifest_path + " is not a CXMF manifest");
  }
  if (GetU32(bytes.data() + 4) != kManifestVersion) {
    return Status::InvalidArgument(
        manifest_path + ": unsupported CXMF version " +
        std::to_string(GetU32(bytes.data() + 4)));
  }
  const uint64_t digest = PlanDigest(plan);
  if (GetU64(bytes.data() + 8) != digest) {
    return Status::InvalidArgument(
        manifest_path +
        " was written for a different plan; refusing to resume");
  }
  if (GetU64(bytes.data() + 16) != plan.num_shards()) {
    return Status::InvalidArgument(manifest_path +
                                   ": shard count mismatch against the plan");
  }
  rp.manifest_offset = kFileHeaderBytes;

  // Longest valid record prefix: checksum-chained (record index and plan
  // digest are folded into every record checksum) and strictly sequenced
  // (header, shards 0..num_shards in order, finish). The first invalid
  // record is a torn tail — everything from it on is discarded.
  struct Range {
    uint64_t begin, end, checksum;
  };
  std::vector<Range> ranges;
  size_t pos = kFileHeaderBytes;
  uint64_t prev_end = 0;
  uint64_t record_index = 0;
  while (!rp.finished && bytes.size() - pos >= kRecordFixedBytes) {
    const char* p = bytes.data() + pos;
    const uint32_t kind = GetU32(p);
    const uint64_t shard_id = GetU64(p + 4);
    const uint64_t end_offset = GetU64(p + 12);
    const uint64_t range_checksum = GetU64(p + 20);
    const int64_t next_key = GetI64(p + 28);
    const uint64_t rows = GetU64(p + 36);
    const uint64_t tuples = GetU64(p + 44);
    const uint32_t num_colors = GetU32(p + 52);
    const size_t total =
        kRecordFixedBytes + static_cast<size_t>(num_colors) * kColorBytes + 8;
    if (bytes.size() - pos < total) break;
    if (GetU64(p + total - 8) !=
        Checksum(p, total - 8, digest ^ record_index)) {
      break;
    }
    if (end_offset < prev_end) break;
    if (record_index == 0) {
      if (kind != 0) break;
    } else if (kind == 1) {
      if (!rp.header_committed || shard_id != rp.next_shard ||
          shard_id > plan.num_shards()) {
        break;
      }
    } else if (kind == 2) {
      if (rp.next_shard != plan.num_shards() + 1) break;
    } else {
      break;
    }
    ranges.push_back(Range{prev_end, end_offset, range_checksum});
    if (kind == 0) rp.header_committed = true;
    if (kind == 1) rp.next_shard = shard_id + 1;
    if (kind == 2) rp.finished = true;
    rp.committed_offset = end_offset;
    rp.next_key = next_key;
    rp.rows_written = rows;
    rp.tuples_written = tuples;
    const char* color = p + kRecordFixedBytes;
    for (uint32_t i = 0; i < num_colors; ++i, color += kColorBytes) {
      rp.repair_colors.emplace_back(GetU32(color), GetI64(color + 4));
    }
    prev_end = end_offset;
    pos += total;
    rp.manifest_offset = pos;
    rp.num_records = ++record_index;
  }
  if (!rp.header_committed) return StreamResumePoint();

  // The stream must back every committed range: long enough, and each
  // range's bytes must reproduce the checksum taken when it was appended. A
  // contradiction means the stream was modified or lost after its fsync —
  // resuming over it would corrupt output, so it is an error, not a
  // truncation.
  std::ifstream stream(stream_path, std::ios::binary);
  if (!stream.is_open()) {
    return Status::InvalidArgument(
        "manifest has committed records but the stream is unreadable: " +
        stream_path);
  }
  stream.seekg(0, std::ios::end);
  const auto stream_size = static_cast<uint64_t>(stream.tellg());
  if (stream_size < rp.committed_offset) {
    return Status::InvalidArgument(
        stream_path + " is shorter than the committed manifest offset (" +
        std::to_string(stream_size) + " < " +
        std::to_string(rp.committed_offset) + ")");
  }
  std::vector<char> chunk(kBufferSpill);
  for (const Range& r : ranges) {
    stream.seekg(static_cast<std::streamoff>(r.begin));
    uint64_t h = kFnv1aBasis;
    uint64_t left = r.end - r.begin;
    while (left > 0) {
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(left, chunk.size()));
      stream.read(chunk.data(), static_cast<std::streamsize>(take));
      if (!stream) {
        return Status::Internal("failed reading " + stream_path +
                                " while validating committed ranges");
      }
      h = Fnv1a(h, chunk.data(), take);
      left -= take;
    }
    if (h != r.checksum) {
      return Status::InvalidArgument(
          stream_path + ": committed range [" + std::to_string(r.begin) +
          ", " + std::to_string(r.end) +
          ") fails its manifest checksum; refusing to resume");
    }
  }
  return rp;
}

// ---- ReplayStream ----

Status ReplayStream(const std::string& stream_path, uint64_t limit,
                    RowSink* sink) {
  std::ifstream in(stream_path, std::ios::binary);
  if (!in.is_open()) {
    return Status::InvalidArgument("cannot open stream for replay: " +
                                   stream_path);
  }
  // Synthetic shard framing: the sink contract only requires rows/tuples in
  // retirement order, which the stream preserves; chunking bounds memory.
  ResolvedShard chunk;
  chunk.blocks.emplace_back();
  ResolvedShard::Block& block = chunk.blocks.back();
  block.worklist_idx = ResolvedShard::kRepairBlock;
  size_t buffered = 0;
  auto flush = [&]() -> Status {
    if (buffered == 0) return Status::Ok();
    Status st = sink->Consume(chunk);
    block.rows.clear();
    block.new_tuples.clear();
    buffered = 0;
    ++chunk.shard_id;
    return st;
  };
  uint64_t consumed = 0;
  std::string line;
  while (consumed < limit && std::getline(in, line)) {
    const uint64_t line_bytes = line.size() + 1;
    if (consumed + line_bytes > limit) {
      return Status::InvalidArgument(
          stream_path + ": committed prefix ends mid-line at byte " +
          std::to_string(limit));
    }
    consumed += line_bytes;
    if (line.size() < 2 || line[1] != ' ') continue;  // header/trailer lines
    const char* p = line.c_str() + 2;
    char* end = nullptr;
    if (line[0] == 'r') {
      errno = 0;
      const unsigned long long row = std::strtoull(p, &end, 10);
      const bool row_fits = end != p && errno == 0 && row <= UINT32_MAX;
      const char* key_begin = end;
      const long long key = std::strtoll(key_begin, &end, 10);
      if (!row_fits || end == key_begin || *end != '\0') {
        return Status::InvalidArgument(stream_path +
                                       ": malformed row record \"" + line +
                                       "\" in committed prefix");
      }
      block.rows.push_back(ShardRow{static_cast<uint32_t>(row),
                                    static_cast<int64_t>(key)});
    } else if (line[0] == 'n') {
      ResolvedShard::NewTuple t;
      t.key = std::strtoll(p, &end, 10);
      if (end == p) {
        return Status::InvalidArgument(stream_path +
                                       ": malformed tuple record \"" + line +
                                       "\" in committed prefix");
      }
      while (*end != '\0') {
        const char* code_begin = end;
        const long long code = std::strtoll(code_begin, &end, 10);
        if (end == code_begin) {
          return Status::InvalidArgument(stream_path +
                                         ": malformed tuple record \"" + line +
                                         "\" in committed prefix");
        }
        t.combo.push_back(static_cast<int64_t>(code));
      }
      block.new_tuples.push_back(std::move(t));
    } else {
      continue;
    }
    if (++buffered >= kReplayChunkRecords) CEXTEND_RETURN_IF_ERROR(flush());
  }
  if (consumed != limit) {
    return Status::InvalidArgument(
        stream_path + " is shorter than the committed prefix (" +
        std::to_string(consumed) + " < " + std::to_string(limit) + ")");
  }
  return flush();
}

// ---- ExecutePlanDurable ----

StatusOr<Phase2Stats> ExecutePlanDurable(const PreparedPlan& prepared,
                                         const Phase2Options& options,
                                         const DurableStreamSpec& spec,
                                         RowSink* tee) {
  if (spec.stream_path.empty()) {
    return Status::InvalidArgument("DurableStreamSpec.stream_path is empty");
  }
  const std::string manifest_path = spec.manifest_path.empty()
                                        ? spec.stream_path + ".manifest"
                                        : spec.manifest_path;
  const size_t num_shards = prepared.plan->num_shards();
  StreamResumePoint rp;
  if (spec.resume) {
    CEXTEND_ASSIGN_OR_RETURN(
        rp, LoadResumePoint(spec.stream_path, manifest_path, *prepared.plan));
  }

  std::unique_ptr<DurableFile> data;
  std::unique_ptr<DurableFile> manifest;
  const bool resuming = spec.resume && rp.header_committed;
  if (resuming) {
    CEXTEND_ASSIGN_OR_RETURN(
        data, DurableFile::OpenAt(spec.stream_path, rp.committed_offset));
    CEXTEND_ASSIGN_OR_RETURN(
        manifest, DurableFile::OpenAt(manifest_path, rp.manifest_offset));
    if (tee != nullptr) {
      // The tee sees the committed prefix first, then the live tail from
      // ExecutePlan — the same call sequence as an uninterrupted run.
      CEXTEND_RETURN_IF_ERROR(tee->Begin(prepared));
      CEXTEND_RETURN_IF_ERROR(
          ReplayStream(spec.stream_path, rp.committed_offset, tee));
    }
  } else {
    rp = StreamResumePoint();
    CEXTEND_ASSIGN_OR_RETURN(data, DurableFile::Create(spec.stream_path));
    CEXTEND_ASSIGN_OR_RETURN(manifest, DurableFile::Create(manifest_path));
  }

  TextStreamSink text(data->stream());
  text.ResumeCounts(static_cast<size_t>(rp.rows_written),
                    static_cast<size_t>(rp.tuples_written));
  DurableStreamSink durable(&text, data.get(), manifest.get(), prepared,
                            resuming ? &rp : nullptr);
  TeeSink teed(&durable, tee);
  RowSink* sink = tee != nullptr ? static_cast<RowSink*>(&teed) : &durable;
  // A finished run is durable through its trailer: nothing is re-executed
  // or written, and only the tee, fed the whole stream above, is finished.
  DiscardSink discard;
  if (rp.finished) sink = tee != nullptr ? tee : &discard;

  ExecuteResume resume;
  resume.first_shard =
      static_cast<size_t>(std::min<uint64_t>(rp.next_shard, num_shards));
  resume.next_key = resuming ? rp.next_key : -1;
  resume.repair_done = rp.next_shard > num_shards;
  resume.repair_colors = rp.repair_colors;

  CEXTEND_ASSIGN_OR_RETURN(Phase2Stats stats,
                           ExecutePlan(prepared, options, sink, resume));
  stats.resumed_shards = static_cast<size_t>(rp.next_shard);
  stats.manifest_commits = durable.manifest_commits();
  return stats;
}

}  // namespace cextend
