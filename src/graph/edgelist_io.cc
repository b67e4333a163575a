#include "graph/edgelist_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/atomic_file.h"

namespace ehna {

namespace {

Status LineError(const std::string& what, const std::string& path,
                 size_t lineno) {
  return Status::InvalidArgument(what + " at " + path + ":" +
                                 std::to_string(lineno));
}

/// Strict double parse of one whitespace-delimited token: the whole token
/// must be consumed and the value must be finite. `operator>>` alone accepts
/// "nan"/"inf" (which corrupt the chronologically-sorted adjacency and its
/// binary searches) and stops silently at the first bad character.
bool ParseFiniteDouble(const std::string& token, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty()) return false;
  if (errno == ERANGE || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

Result<std::vector<TemporalEdge>> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);

  std::vector<TemporalEdge> edges;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    long long src = -1, dst = -1;
    std::string time_tok;
    if (!(ls >> src >> dst >> time_tok)) {
      return LineError("malformed edge", path, lineno);
    }
    double time = 0.0;
    if (!ParseFiniteDouble(time_tok, &time)) {
      return LineError("non-finite or malformed timestamp '" + time_tok + "'",
                       path, lineno);
    }
    double weight = 1.0;  // optional fourth column.
    std::string weight_tok;
    if (ls >> weight_tok) {
      if (!ParseFiniteDouble(weight_tok, &weight)) {
        return LineError("non-finite or malformed weight '" + weight_tok + "'",
                         path, lineno);
      }
      std::string junk;
      if (ls >> junk) {
        return LineError("trailing garbage '" + junk + "'", path, lineno);
      }
    }
    if (src < 0 || dst < 0 ||
        src > static_cast<long long>(kInvalidNode) - 1 ||
        dst > static_cast<long long>(kInvalidNode) - 1) {
      return LineError("node id out of range", path, lineno);
    }
    // Casting a double beyond float range to float is undefined behaviour.
    if (std::fabs(weight) > std::numeric_limits<float>::max()) {
      return LineError("weight '" + weight_tok + "' out of float range", path,
                       lineno);
    }
    const TemporalEdge edge{static_cast<NodeId>(src), static_cast<NodeId>(dst),
                            time, static_cast<float>(weight)};
    if (const Status st = TemporalGraph::ValidateEdge(edge); !st.ok()) {
      return LineError(st.message(), path, lineno);
    }
    edges.push_back(edge);
  }
  return edges;
}

Status WriteEdgeList(const std::string& path,
                     const std::vector<TemporalEdge>& edges) {
  return AtomicWriteFile(path, [&edges](std::ostream& out) -> Status {
    // Full precision so written timestamps/weights read back exactly.
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const auto& e : edges) {
      out << e.src << " " << e.dst << " " << e.time << " " << e.weight
          << "\n";
    }
    return Status::OK();
  });
}

Result<TemporalGraph> LoadTemporalGraph(const std::string& path,
                                        bool directed) {
  EHNA_ASSIGN_OR_RETURN(std::vector<TemporalEdge> edges, ReadEdgeList(path));
  return TemporalGraph::FromEdges(std::move(edges), /*num_nodes=*/0, directed);
}

}  // namespace ehna
