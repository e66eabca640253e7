/// \file io.hpp
/// \brief Graph serialization: the METIS text format (the de-facto standard
///        the paper's benchmark graphs ship in) and SNAP-style edge lists.
#pragma once

#include <string>

#include "oms/graph/csr_graph.hpp"

namespace oms {

/// Write in METIS format. The fmt field is chosen automatically:
/// "" for unit weights, "1" for edge weights, "10" for node weights, "11" for
/// both. Node ids are 1-based in the file, per the format.
void write_metis(const CsrGraph& graph, const std::string& path);

/// Read a METIS file produced by write_metis (or any well-formed METIS graph
/// with fmt in {"", "0", "1", "10", "11"}) into memory. It drains a
/// MetisNodeStream (stream/metis_stream.hpp), so both routes accept the same
/// files. Throws oms::IoError (with file:line position) on unopenable paths
/// and malformed content — bad header, non-numeric token, out-of-range
/// neighbor, missing or out-of-range weight (edge weights must be >= 1, node
/// weights >= 0), edge count disagreeing with the header.
[[nodiscard]] CsrGraph read_metis(const std::string& path);

/// Write as a SNAP-style whitespace edge list (`u v` or `u v w` per line,
/// 0-based ids, each undirected edge once with u < v) — the input of
/// EdgeListStream and the vertex-cut partitioners. Unit weights omit the
/// third column.
void write_edge_list(const CsrGraph& graph, const std::string& path);

} // namespace oms
