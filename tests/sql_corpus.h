// SQL statements shared by the parser's unit and fuzz suites: the paper's
// appendix workload queries and the dialect's other well-formed shapes.
#ifndef CVOPT_TESTS_SQL_CORPUS_H_
#define CVOPT_TESTS_SQL_CORPUS_H_

#include <string>
#include <vector>

namespace cvopt {

/// The paper's appendix queries, adapted to this schema and dialect.
inline const std::vector<std::string>& PaperAppendixQueries() {
  static const std::vector<std::string> queries = {
      // AQ2
      "SELECT country, parameter, unit, SUM(value), COUNT(*) FROM OpenAQ "
      "GROUP BY country, parameter, unit",
      // AQ3
      "SELECT country, parameter, unit, AVG(value) FROM OpenAQ "
      "WHERE hour BETWEEN 0 AND 24 GROUP BY country, parameter, unit",
      // AQ5
      "SELECT country, parameter, unit, AVG(value) FROM OpenAQ "
      "WHERE latitude > 0 GROUP BY country, parameter, unit",
      // AQ6
      "SELECT parameter, unit, COUNT_IF(value > 0.5) FROM OpenAQ "
      "WHERE country = 'VN' GROUP BY parameter, unit",
      // AQ7
      "SELECT country, parameter, SUM(value) FROM OpenAQ "
      "GROUP BY country, parameter WITH CUBE",
      // B1
      "SELECT from_station_id, AVG(age), AVG(trip_duration) FROM Bikes "
      "WHERE age > 0 GROUP BY from_station_id",
      // B2
      "SELECT from_station_id, AVG(trip_duration) FROM Bikes "
      "WHERE trip_duration > 0 GROUP BY from_station_id",
      // B4
      "SELECT from_station_id, year, SUM(trip_duration), SUM(age) FROM Bikes "
      "GROUP BY from_station_id, year WITH CUBE",
  };
  return queries;
}

/// Well-formed statements covering the rest of the grammar: case-folded
/// keywords, every comparison operator, BETWEEN / IN / NOT / parentheses,
/// COUNT_IF, VARIANCE and MEDIAN, string and decimal literals, a trailing
/// semicolon.
inline const std::vector<std::string>& SqlParserCorpus() {
  static const std::vector<std::string> queries = {
      "SELECT major, AVG(gpa) FROM Student GROUP BY major",
      "select major, avg(gpa) from Student group by major",
      "SELECT major, AVG(gpa) FROM s "
      "WHERE college = 'Science' AND age > 21 GROUP BY major",
      "SELECT g, AVG(v) FROM t WHERE (hour BETWEEN 0 AND 11 "
      "OR major IN ('CS', 'EE')) AND NOT age <= 20 GROUP BY g",
      "SELECT country, COUNT_IF(value > 0.04) FROM t GROUP BY country",
      "SELECT g, VAR(v), VARIANCE(v), MEDIAN(v) FROM t "
      "WHERE x != 5 OR x <> 6 OR x < 7 OR x >= 8.5e1 GROUP BY g",
      "SELECT COUNT(*) FROM t WHERE NOT (a = 1 OR (b <= 2 AND c IN (1, 2)));",
  };
  return queries;
}

}  // namespace cvopt

#endif  // CVOPT_TESTS_SQL_CORPUS_H_
