#ifndef INFERTURBO_TESTS_ORACLES_SUPERSTEP_GATHER_SCALAR_H_
#define INFERTURBO_TESTS_ORACLES_SUPERSTEP_GATHER_SCALAR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/gas/superstep_gather.h"

namespace inferturbo {

/// The retained scalar oracle — byte-for-byte the pre-kernel per-row
/// fold the Pregel driver used to run. It is the bit-identity oracle
/// the equivalence tests check the fast path against and the baseline
/// bench_superstep measures speedups against; its TU is compiled with
/// autovectorization disabled so the baseline means the same thing at
/// every optimization level. Do not "optimize" it.
GatherResult GatherSuperstepInboxScalar(
    AggKind kind, std::int64_t msg_dim,
    std::span<const MessageBatch> batches,
    const std::vector<bool>& batch_partial,
    std::span<const std::int64_t> local_index, std::int64_t num_nodes,
    const BroadcastLookupFn& lookup);

}  // namespace inferturbo

#endif  // INFERTURBO_TESTS_ORACLES_SUPERSTEP_GATHER_SCALAR_H_
