/// \file oms.hpp
/// \brief The public umbrella header.
///
/// One include for downstream users and the bundled tools: the unified
/// partitioning API (PartitionRequest -> Partitioner -> PartitionArtifact),
/// the artifact snapshot format, the service protocol behind oms_serve, the
/// shared CLI front end, and the error types of both failure channels.
/// Internal subsystem headers (drivers, partitioner internals, streams)
/// remain includable individually, but new code should not need them:
/// everything below is the supported surface.
#pragma once

#include "oms/api/partition_artifact.hpp" // the immutable result + snapshot io
#include "oms/api/partition_request.hpp"  // the one request struct + InvalidRequest
#include "oms/api/partitioner.hpp"        // the facade: partition(request)
#include "oms/cli/parse_request.hpp"      // flags -> PartitionRequest + UsageError
#include "oms/graph/io.hpp"               // read_metis / write_metis / write_edge_list
#include "oms/partition/metrics.hpp"      // edge_cut / imbalance / mapping_cost / ...
#include "oms/service/client.hpp"         // ServiceClient: self-healing daemon client
#include "oms/service/protocol.hpp"       // the oms_serve wire protocol
#include "oms/service/service.hpp"        // PartitionService + serve loops
#include "oms/telemetry/metrics.hpp"      // MetricsRegistry / TraceSpan / hooks
#include "oms/telemetry/progress.hpp"     // --progress stderr heartbeat
#include "oms/util/io_error.hpp"          // IoError / ContentError
