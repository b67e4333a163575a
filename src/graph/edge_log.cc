#include "graph/edge_log.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "util/crc32.h"
#include "util/logging.h"

namespace ehna {

namespace {

constexpr char kMagic[4] = {'E', 'H', 'N', 'L'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kFlagDirected = 1u << 0;
constexpr uint32_t kKnownFlags = kFlagDirected;
constexpr uint32_t kRecordBytes = 24;
constexpr uint64_t kHeaderBytes = 40;
constexpr uint64_t kFooterBytes = 4;

// The mapped record array is read through EdgeLogRecord directly; pin the
// struct to the on-disk layout so a compiler that padded differently fails
// the build instead of misreading logs.
static_assert(sizeof(EdgeLogRecord) == kRecordBytes);
static_assert(offsetof(EdgeLogRecord, src) == 0);
static_assert(offsetof(EdgeLogRecord, dst) == 4);
static_assert(offsetof(EdgeLogRecord, time) == 8);
static_assert(offsetof(EdgeLogRecord, weight) == 16);
static_assert(offsetof(EdgeLogRecord, pad) == 20);
// Records start at byte 40, so the 8-aligned `time` field stays 8-aligned
// in the mapping.
static_assert(kHeaderBytes % alignof(EdgeLogRecord) == 0);

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint32_t flags;
  uint32_t record_bytes;
  uint32_t reserved;
  uint32_t crc;  // CRC-32 of the 36 bytes above.
};
static_assert(sizeof(Header) == kHeaderBytes);
static_assert(offsetof(Header, crc) == kHeaderBytes - 4);

Header MakeHeader(NodeId num_nodes, uint64_t num_edges, bool directed) {
  Header h;
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.flags = directed ? kFlagDirected : 0;
  h.num_nodes = num_nodes;
  h.num_edges = num_edges;
  h.record_bytes = kRecordBytes;
  h.reserved = 0;
  h.crc = Crc32(&h, offsetof(Header, crc));
  return h;
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("corrupt edge log " + path + ": " + what);
}

Status ValidateRecord(const std::string& path, const EdgeLogRecord& r,
                      uint64_t index, uint64_t num_nodes, double prev_time) {
  const std::string at = "record " + std::to_string(index) + ": ";
  if (r.src >= num_nodes || r.dst >= num_nodes) {
    return Corrupt(path, at + "endpoint " +
                             std::to_string(std::max(r.src, r.dst)) +
                             " >= num_nodes " + std::to_string(num_nodes));
  }
  if (r.src == r.dst) {
    return Corrupt(path, at + "self-loop on node " + std::to_string(r.src));
  }
  if (!std::isfinite(r.time)) {
    return Corrupt(path, at + "non-finite timestamp");
  }
  if (r.time < prev_time) {
    return Corrupt(path, at + "timestamp regresses (log must be time-sorted)");
  }
  if (!std::isfinite(r.weight) || r.weight < 0.0f) {
    return Corrupt(path, at + "non-finite or negative weight");
  }
  if (r.pad != 0) {
    return Corrupt(path, at + "nonzero pad bytes");
  }
  return Status::OK();
}

}  // namespace

// ----------------------------------------------------------------- writer

Result<EdgeLogWriter> EdgeLogWriter::Create(const std::string& path,
                                            NodeId num_nodes, bool directed) {
  if (num_nodes == kInvalidNode) {
    return Status::InvalidArgument("num_nodes " + std::to_string(num_nodes) +
                                   " is the invalid-node sentinel");
  }
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  // Placeholder header; Finish() rewrites it with the real edge count.
  const Header h = MakeHeader(num_nodes, 0, directed);
  if (std::fwrite(&h, sizeof(h), 1, f) != 1) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::IoError("cannot write header to " + tmp);
  }
  return EdgeLogWriter(path, std::move(tmp), f, num_nodes, directed);
}

EdgeLogWriter::EdgeLogWriter(EdgeLogWriter&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_path_(std::move(other.tmp_path_)),
      file_(std::exchange(other.file_, nullptr)),
      num_nodes_(other.num_nodes_),
      directed_(other.directed_),
      num_edges_(other.num_edges_),
      payload_crc_(other.payload_crc_),
      last_time_(other.last_time_) {}

EdgeLogWriter::~EdgeLogWriter() { Abort(); }

void EdgeLogWriter::Abort() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
    file_ = nullptr;
  }
}

Status EdgeLogWriter::Append(const TemporalEdge& edge) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("edge log writer already finished");
  }
  if (edge.src >= num_nodes_ || edge.dst >= num_nodes_) {
    return Status::InvalidArgument(
        "edge endpoint " + std::to_string(std::max(edge.src, edge.dst)) +
        " >= num_nodes " + std::to_string(num_nodes_));
  }
  EHNA_RETURN_NOT_OK(TemporalGraph::ValidateEdge(edge));
  if (num_edges_ > 0 && edge.time < last_time_) {
    return Status::InvalidArgument(
        "edge log appends must be time-sorted: time " +
        std::to_string(edge.time) + " < previous " +
        std::to_string(last_time_));
  }
  EHNA_RETURN_NOT_OK(TemporalGraph::ValidateEdgeCount(num_edges_ + 1));

  EdgeLogRecord r;
  r.src = edge.src;
  r.dst = edge.dst;
  r.time = edge.time;
  r.weight = edge.weight;
  r.pad = 0;
  if (std::fwrite(&r, sizeof(r), 1, file_) != 1) {
    return Status::IoError("cannot append record to " + tmp_path_);
  }
  payload_crc_ = Crc32(&r, sizeof(r), payload_crc_);
  last_time_ = edge.time;
  ++num_edges_;
  return Status::OK();
}

Status EdgeLogWriter::Finish() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("edge log writer already finished");
  }
  bool io_ok = std::fwrite(&payload_crc_, sizeof(payload_crc_), 1, file_) == 1;
  const Header h = MakeHeader(num_nodes_, num_edges_, directed_);
  io_ok = io_ok && std::fseek(file_, 0, SEEK_SET) == 0 &&
          std::fwrite(&h, sizeof(h), 1, file_) == 1 &&
          std::fflush(file_) == 0;
  io_ok = std::fclose(file_) == 0 && io_ok;
  file_ = nullptr;
  if (!io_ok) {
    std::remove(tmp_path_.c_str());
    return Status::IoError("cannot finalize edge log " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp_path_.c_str());
    return Status::IoError("cannot rename " + tmp_path_ + " to " + path_ +
                           ": " + std::strerror(err));
  }
  return Status::OK();
}

Status WriteEdgeLog(const std::string& path,
                    std::span<const TemporalEdge> edges, NodeId num_nodes,
                    bool directed) {
  EHNA_ASSIGN_OR_RETURN(EdgeLogWriter writer,
                        EdgeLogWriter::Create(path, num_nodes, directed));
  for (const TemporalEdge& e : edges) {
    EHNA_RETURN_NOT_OK(writer.Append(e));
  }
  return writer.Finish();
}

// ----------------------------------------------------------------- reader

Result<EdgeLogReader> EdgeLogReader::Open(const std::string& path) {
  EHNA_ASSIGN_OR_RETURN(MmapFile mapping, MmapFile::Open(path));
  if (mapping.size() < kHeaderBytes + kFooterBytes) {
    return Corrupt(path, "truncated header");
  }

  Header h;
  std::memcpy(&h, mapping.data(), sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  if (h.crc != Crc32(&h, offsetof(Header, crc))) {
    return Corrupt(path, "header checksum mismatch");
  }
  if (h.version != kVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(h.version) +
                             " (this build reads version " +
                             std::to_string(kVersion) + ")");
  }
  if ((h.flags & ~kKnownFlags) != 0 || h.reserved != 0) {
    return Corrupt(path, "unknown flags or nonzero reserved field");
  }
  if (h.record_bytes != kRecordBytes) {
    return Corrupt(path, "record size " + std::to_string(h.record_bytes) +
                             " != expected " + std::to_string(kRecordBytes));
  }
  if (h.num_nodes > kInvalidNode - 1) {
    return Corrupt(path, "num_nodes " + std::to_string(h.num_nodes) +
                             " exceeds the 32-bit NodeId space");
  }
  EHNA_RETURN_NOT_OK(TemporalGraph::ValidateEdgeCount(h.num_edges));
  // Exact size equation before touching any record: a corrupt count can
  // never walk the reader off the mapping.
  const uint64_t want =
      kHeaderBytes + h.num_edges * uint64_t{kRecordBytes} + kFooterBytes;
  if (mapping.size() != want) {
    return Corrupt(path, "file size " + std::to_string(mapping.size()) +
                             " != " + std::to_string(want) +
                             " implied by the header's edge count");
  }

  mapping.AdviseSequential();
  const uint8_t* payload = mapping.data() + kHeaderBytes;
  const uint64_t payload_bytes = h.num_edges * uint64_t{kRecordBytes};
  uint32_t footer_crc = 0;
  std::memcpy(&footer_crc, payload + payload_bytes, sizeof(footer_crc));
  if (Crc32(payload, payload_bytes) != footer_crc) {
    return Corrupt(path, "payload checksum mismatch");
  }

  const auto* records = reinterpret_cast<const EdgeLogRecord*>(payload);
  double prev_time = -std::numeric_limits<double>::infinity();
  for (uint64_t i = 0; i < h.num_edges; ++i) {
    EHNA_RETURN_NOT_OK(
        ValidateRecord(path, records[i], i, h.num_nodes, prev_time));
    prev_time = records[i].time;
  }

  return EdgeLogReader(std::move(mapping), records,
                       static_cast<NodeId>(h.num_nodes), h.num_edges,
                       (h.flags & kFlagDirected) != 0);
}

// ------------------------------------------------- CSR build from the log

Result<TemporalGraph> TemporalGraph::FromEdgeLog(const EdgeLogReader& log) {
  TemporalGraph g;
  g.directed_ = log.directed();
  g.num_nodes_ = log.num_nodes();
  // Records are validated and time-sorted, so the only work left is one
  // sequential copy out of the mapping plus the CSR counting fill — no
  // re-validation, no sort, no intermediate edge vector.
  g.edges_.reserve(log.num_edges());
  for (const EdgeLogRecord& r : log.records()) {
    g.edges_.push_back(TemporalEdge{r.src, r.dst, r.time, r.weight});
  }
  g.BuildAdjacency();
  return g;
}

Result<TemporalGraph> TemporalGraph::FromEdgeLog(const std::string& path) {
  EHNA_ASSIGN_OR_RETURN(EdgeLogReader log, EdgeLogReader::Open(path));
  return FromEdgeLog(log);
}

}  // namespace ehna
