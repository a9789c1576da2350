// A small SQL front-end for the subset of SQL the paper's workload uses:
//
//   SELECT <col | AVG(col) | SUM(col) | COUNT(*) | COUNT_IF(pred)> [, ...]
//   FROM <table>
//   [WHERE <pred>]
//   [GROUP BY col [, ...] [WITH CUBE]]
//
// with predicates over =, !=, <>, <, <=, >, >=, BETWEEN..AND, IN (...),
// AND / OR / NOT and parentheses; numeric and 'string' literals. Keywords
// are case-insensitive. The parser produces the same QuerySpec the
// programmatic API uses, so parsed queries run on both the exact and the
// sample-based engines.
#ifndef CVOPT_SQL_PARSER_H_
#define CVOPT_SQL_PARSER_H_

#include <string>

#include "src/exec/query.h"

namespace cvopt {

/// Deepest predicate (WHERE or COUNT_IF) the parser accepts. A comparison
/// has depth 1, and every NOT, pair of parentheses and AND/OR node adds one
/// over its deepest operand, so an AND/OR chain of k terms is k deep.
/// Deeper predicates fail with InvalidArgument before the parser or the
/// tree's recursive consumers (compilation, rendering, destruction) can
/// exhaust the stack. A fixed limit, not an option; long disjunctions over
/// one column fit in IN (...).
inline constexpr int kMaxPredicateDepth = 256;

/// Result of parsing one SELECT statement.
struct ParsedQuery {
  QuerySpec query;
  std::string table_name;
  /// True when the GROUP BY clause ends in WITH CUBE; expand with
  /// ExpandCube(query) to obtain all grouping sets.
  bool with_cube = false;
};

/// Parses a single SELECT statement. Plain (non-aggregate) select columns
/// must appear in the GROUP BY clause, as in SQL. Predicates deeper than
/// kMaxPredicateDepth are rejected.
Result<ParsedQuery> ParseSql(const std::string& sql);

}  // namespace cvopt

#endif  // CVOPT_SQL_PARSER_H_
