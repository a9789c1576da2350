// Out-of-core group-by execution over an mmap-backed chunked table file.
//
// ExecuteGroupByMapped runs a group-by query over a MappedTable without
// ever materializing it. It decodes only the columns the query reads —
// group-by columns, aggregate inputs, and the columns its WHERE clause and
// COUNT_IF filters name — and reads them in place from the decoded-chunk
// cache (CVOPT_CHUNK_CACHE_BYTES). Two phases:
//
//   1. Discovery (sequential, chunk order): each chunk's zone maps are
//      classified against the WHERE clause, and its group-by columns are
//      routed through a StreamGroupRouter, recording every row's dense
//      first-occurrence group id. Every chunk is routed — even one the
//      zone maps refute — so group order matches the in-memory executor.
//   2. Accumulation (morsel-parallel, in waves over the chunks the zone
//      maps could not refute): each chunk decodes its aggregate input and
//      predicate columns on its own worker, evaluates its WHERE / COUNT_IF
//      masks (provably-accepted chunks skip the WHERE), and buckets its
//      surviving rows by the worker that owns their group id range; each
//      owner then walks only its own buckets, chunks in order and rows
//      ascending, adding straight into the global accumulators.
//
// Peak memory is the row->gid map, one decode wave's projected columns and
// buckets, and the cache budget. When the ambient QueryContext refuses the
// row->gid map, a fused serial scan routes and accumulates one chunk at a
// time instead.
//
// Determinism contract: every group's values are added in ascending row
// order by exactly one worker, in both scan shapes. Hence:
//   * the mapped answer is bitwise identical to itself across thread
//     counts, chunk geometry, cache budget, zone pruning on/off, and the
//     serial-degraded vs parallel scan;
//   * at one execution thread it is bitwise identical (groups, order,
//     labels, values) to ExecuteExact on the materialized table. Above one
//     thread ExecuteExact's float sums reassociate by its own morsel
//     chunking, so the two agree only within float-summation tolerance.
#ifndef CVOPT_EXEC_CHUNKED_SCAN_H_
#define CVOPT_EXEC_CHUNKED_SCAN_H_

#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/table/mapped_table.h"
#include "src/util/status.h"

namespace cvopt {

/// Runs `query` exactly over the mapped table. Supports the full aggregate
/// set of ExecuteExact; group-by columns must be int64 or string,
/// aggregated columns numeric.
Result<QueryResult> ExecuteGroupByMapped(const MappedTable& mapped,
                                         const QuerySpec& query);

/// Budget-adaptive exact group-by: materializes the table and runs the
/// parallel in-memory executor when the ambient QueryContext's memory
/// budget admits the decoded table (or when ungoverned), and degrades to
/// the streaming ExecuteGroupByMapped scan when the reservation is refused
/// or the in-memory run returns kResourceExhausted. Both paths produce the
/// same groups and aggregates; with one resolved execution thread they are
/// bitwise-identical (the in-memory executor's float accumulation chunking
/// follows the thread count, the mapped scan's is fixed), so degradation is
/// invisible except in speed and working-set size.
Result<QueryResult> ExecuteGroupByAdaptive(const MappedTable& mapped,
                                           const QuerySpec& query);

}  // namespace cvopt

#endif  // CVOPT_EXEC_CHUNKED_SCAN_H_
