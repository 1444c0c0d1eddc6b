#ifndef ESSDDS_PERFBENCH_WORKLOADS_H_
#define ESSDDS_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace essdds::perfbench {

/// The paper's §7 read path: surname searches plus Gets of every hit on an
/// in-RAM 50,000-record store (search.cc).
Report RunSearch(const Args& args);

/// One traced round of the durable write path: inserts into a logged,
/// parity-protected store, per-layer metrics only (ingest.cc). Called by the
/// traced search run; Args::seconds is ignored.
Report RunIngest(const Args& args);

/// Raw LH* lookups and overwrites from a pipelined SocketClient against a
/// forked 3-host unix-socket cluster (kv_socket.cc).
Report RunKvSocket(const Args& args);

}  // namespace essdds::perfbench

#endif  // ESSDDS_PERFBENCH_WORKLOADS_H_
