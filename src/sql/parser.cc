#include "src/sql/parser.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "src/util/string_util.h"

namespace cvopt {
namespace {

enum class TokKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // idents upper-cased for keyword matching; symbols as-is
  std::string raw;    // original spelling (idents keep case; strings unquoted)
  double number = 0;
};

// Lexes on demand: the parser holds one token at a time, so a statement's
// working memory is its parse tree plus the current token, whatever its
// length.
class Lexer {
 public:
  explicit Lexer(const std::string& sql) : sql_(sql) {}

  // The next token; kEnd once the input is exhausted (and on every later
  // call).
  Result<Token> Next() {
    const size_t n = sql_.size();
    while (i_ < n && std::isspace(static_cast<unsigned char>(sql_[i_]))) ++i_;
    if (i_ >= n) return Token{TokKind::kEnd, "", "", 0};
    const size_t i = i_;
    const char c = sql_[i];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql_[j])) ||
                       sql_[j] == '_')) {
        ++j;
      }
      Token t;
      t.kind = TokKind::kIdent;
      t.raw = sql_.substr(i, j - i);
      t.text = t.raw;
      std::transform(t.text.begin(), t.text.end(), t.text.begin(),
                     [](unsigned char ch) { return std::toupper(ch); });
      i_ = j;
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql_[i + 1])))) {
      size_t j = i;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql_[j])) ||
                       sql_[j] == '.' || sql_[j] == 'e' || sql_[j] == 'E' ||
                       ((sql_[j] == '+' || sql_[j] == '-') && j > i &&
                        (sql_[j - 1] == 'e' || sql_[j - 1] == 'E')))) {
        ++j;
      }
      Token t;
      t.kind = TokKind::kNumber;
      t.raw = sql_.substr(i, j - i);
      t.text = t.raw;
      try {
        t.number = std::stod(t.raw);
      } catch (...) {
        return Status::InvalidArgument("bad numeric literal '" + t.raw + "'");
      }
      i_ = j;
      return t;
    }
    if (c == '\'') {
      const size_t j = sql_.find('\'', i + 1);
      if (j == std::string::npos) {
        return Status::InvalidArgument("unterminated string literal");
      }
      Token t;
      t.kind = TokKind::kString;
      t.raw = sql_.substr(i + 1, j - i - 1);
      t.text = t.raw;
      i_ = j + 1;
      return t;
    }
    // Two-character operators first.
    if (i + 1 < n) {
      const std::string two = sql_.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "!=" || two == "<>") {
        i_ += 2;
        return Token{TokKind::kSymbol, two, two, 0};
      }
    }
    if (c == '(' || c == ')' || c == ',' || c == '=' || c == '<' || c == '>' ||
        c == '*' || c == ';') {
      ++i_;
      const std::string one(1, c);
      return Token{TokKind::kSymbol, one, one, 0};
    }
    return Status::InvalidArgument(StrFormat("unexpected character '%c'", c));
  }

 private:
  const std::string& sql_;
  size_t i_ = 0;
};

class Parser {
 public:
  explicit Parser(const std::string& sql) : lexer_(sql) { Advance(); }

  // The statement's first malformed token, if any — lexing on from where
  // the parser stopped, so a lexical error anywhere in the input wins over
  // a parse error, exactly as when the whole input was lexed up front.
  Status LexError() {
    while (lex_error_.ok() && cur_.kind != TokKind::kEnd) Advance();
    return lex_error_;
  }

  Result<ParsedQuery> Parse() {
    ParsedQuery out;
    CVOPT_RETURN_NOT_OK(ExpectKeyword("SELECT"));

    // Select list: remember plain columns for GROUP BY validation.
    std::vector<std::string> plain_columns;
    while (true) {
      CVOPT_RETURN_NOT_OK(ParseSelectItem(&out.query, &plain_columns));
      if (!ConsumeSymbol(",")) break;
    }

    CVOPT_RETURN_NOT_OK(ExpectKeyword("FROM"));
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected table name after FROM");
    }
    out.table_name = Next().raw;

    if (ConsumeKeyword("WHERE")) {
      CVOPT_ASSIGN_OR_RETURN(out.query.where, ParseOr());
    }

    if (ConsumeKeyword("GROUP")) {
      CVOPT_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        if (Peek().kind != TokKind::kIdent) {
          return Status::InvalidArgument("expected column in GROUP BY");
        }
        out.query.group_by.push_back(Next().raw);
        if (!ConsumeSymbol(",")) break;
      }
      if (ConsumeKeyword("WITH")) {
        CVOPT_RETURN_NOT_OK(ExpectKeyword("CUBE"));
        out.with_cube = true;
      }
    }
    ConsumeSymbol(";");
    if (Peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument("trailing tokens after statement: '" +
                                     Peek().raw + "'");
    }
    if (out.query.aggregates.empty()) {
      return Status::InvalidArgument("SELECT list has no aggregate");
    }
    // SQL validity: plain select columns must be grouped.
    for (const auto& col : plain_columns) {
      if (std::find(out.query.group_by.begin(), out.query.group_by.end(),
                    col) == out.query.group_by.end()) {
        return Status::InvalidArgument("column '" + col +
                                       "' must appear in GROUP BY");
      }
    }
    return out;
  }

 private:
  const Token& Peek() const { return cur_; }
  Token Next() {
    Token t = std::move(cur_);
    Advance();
    return t;
  }
  // Lexes the next token into cur_. A lexical error ends the token stream
  // (cur_ becomes kEnd) and is kept for LexError.
  void Advance() {
    if (!lex_error_.ok()) return;
    Result<Token> t = lexer_.Next();
    if (t.ok()) {
      cur_ = std::move(t).value();
    } else {
      lex_error_ = t.status();
      cur_ = Token{TokKind::kEnd, "", "", 0};
    }
  }

  bool ConsumeKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kIdent && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(const std::string& s) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == s) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!ConsumeKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + " near '" +
                                     Peek().raw + "'");
    }
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& s) {
    if (!ConsumeSymbol(s)) {
      return Status::InvalidArgument("expected '" + s + "' near '" +
                                     Peek().raw + "'");
    }
    return Status::OK();
  }

  Status ParseSelectItem(QuerySpec* query,
                         std::vector<std::string>* plain_columns) {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected column or aggregate near '" +
                                     Peek().raw + "'");
    }
    const std::string kw = Peek().text;
    if (kw == "AVG" || kw == "SUM" || kw == "VAR" || kw == "VARIANCE" ||
        kw == "MEDIAN") {
      Next();
      CVOPT_RETURN_NOT_OK(ExpectSymbol("("));
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected column inside " + kw);
      }
      const std::string col = Next().raw;
      CVOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      if (kw == "AVG") {
        query->aggregates.push_back(AggSpec::Avg(col));
      } else if (kw == "SUM") {
        query->aggregates.push_back(AggSpec::Sum(col));
      } else if (kw == "MEDIAN") {
        query->aggregates.push_back(AggSpec::Median(col));
      } else {
        query->aggregates.push_back(AggSpec::Variance(col));
      }
      return Status::OK();
    }
    if (kw == "COUNT") {
      Next();
      CVOPT_RETURN_NOT_OK(ExpectSymbol("("));
      CVOPT_RETURN_NOT_OK(ExpectSymbol("*"));
      CVOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      query->aggregates.push_back(AggSpec::Count());
      return Status::OK();
    }
    if (kw == "COUNT_IF") {
      Next();
      CVOPT_RETURN_NOT_OK(ExpectSymbol("("));
      CVOPT_ASSIGN_OR_RETURN(PredicatePtr filter, ParseOr());
      CVOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      query->aggregates.push_back(AggSpec::CountIf(std::move(filter)));
      return Status::OK();
    }
    // Plain grouped column.
    plain_columns->push_back(Next().raw);
    return Status::OK();
  }

  // Predicate depth (kMaxPredicateDepth). open_ counts the NOT and
  // parenthesis levels enclosing the current token; height_ is the depth of
  // the subtree a Parse* call just returned. Every finished predicate is at
  // least open_ + height_ deep, so checking that sum as levels open and
  // subtrees grow rejects a too-deep predicate before the recursion or the
  // tree outgrows the limit.
  Status TooDeep() const {
    return Status::InvalidArgument(StrFormat(
        "predicate nested deeper than %d levels", kMaxPredicateDepth));
  }
  Status OpenLevel() {
    return ++open_ >= kMaxPredicateDepth ? TooDeep() : Status::OK();
  }
  Status SetHeight(int height) {
    height_ = height;
    return open_ + height_ > kMaxPredicateDepth ? TooDeep() : Status::OK();
  }

  Result<PredicatePtr> ParseOr() {
    CVOPT_ASSIGN_OR_RETURN(PredicatePtr lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      const int lhs_height = height_;
      CVOPT_ASSIGN_OR_RETURN(PredicatePtr rhs, ParseAnd());
      CVOPT_RETURN_NOT_OK(SetHeight(1 + std::max(lhs_height, height_)));
      lhs = Predicate::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<PredicatePtr> ParseAnd() {
    CVOPT_ASSIGN_OR_RETURN(PredicatePtr lhs, ParseUnary());
    while (Peek().kind == TokKind::kIdent && Peek().text == "AND") {
      Advance();
      const int lhs_height = height_;
      CVOPT_ASSIGN_OR_RETURN(PredicatePtr rhs, ParseUnary());
      CVOPT_RETURN_NOT_OK(SetHeight(1 + std::max(lhs_height, height_)));
      lhs = Predicate::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<PredicatePtr> ParseUnary() {
    if (ConsumeKeyword("NOT")) {
      CVOPT_RETURN_NOT_OK(OpenLevel());
      CVOPT_ASSIGN_OR_RETURN(PredicatePtr inner, ParseUnary());
      --open_;
      CVOPT_RETURN_NOT_OK(SetHeight(height_ + 1));
      return Predicate::Not(std::move(inner));
    }
    if (ConsumeSymbol("(")) {
      CVOPT_RETURN_NOT_OK(OpenLevel());
      CVOPT_ASSIGN_OR_RETURN(PredicatePtr inner, ParseOr());
      CVOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      --open_;
      CVOPT_RETURN_NOT_OK(SetHeight(height_ + 1));
      return inner;
    }
    CVOPT_RETURN_NOT_OK(SetHeight(1));
    return ParseComparison();
  }

  Result<Value> ParseLiteral() {
    if (Peek().kind == TokKind::kNumber) {
      const Token t = Next();
      // Integral literals stay int64 so they compare against int columns;
      // a literal past the int64 range stays a double (casting it would
      // be UB).
      if (t.raw.find('.') == std::string::npos &&
          t.raw.find('e') == std::string::npos &&
          t.raw.find('E') == std::string::npos && t.number < 0x1p63) {
        return Value(static_cast<int64_t>(t.number));
      }
      return Value(t.number);
    }
    if (Peek().kind == TokKind::kString) return Value(Next().raw);
    return Status::InvalidArgument("expected literal near '" + Peek().raw +
                                   "'");
  }

  Result<PredicatePtr> ParseComparison() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected column near '" + Peek().raw + "'");
    }
    const std::string col = Next().raw;

    if (ConsumeKeyword("BETWEEN")) {
      CVOPT_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      CVOPT_RETURN_NOT_OK(ExpectKeyword("AND"));
      CVOPT_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      return Predicate::Between(col, std::move(lo), std::move(hi));
    }
    if (ConsumeKeyword("IN")) {
      CVOPT_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> values;
      while (true) {
        CVOPT_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        values.push_back(std::move(v));
        if (!ConsumeSymbol(",")) break;
      }
      CVOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      return Predicate::In(col, std::move(values));
    }

    const Token& op_tok = Peek();
    if (op_tok.kind != TokKind::kSymbol) {
      return Status::InvalidArgument("expected comparison operator near '" +
                                     op_tok.raw + "'");
    }
    CompareOp op;
    if (op_tok.text == "=") {
      op = CompareOp::kEq;
    } else if (op_tok.text == "!=" || op_tok.text == "<>") {
      op = CompareOp::kNe;
    } else if (op_tok.text == "<") {
      op = CompareOp::kLt;
    } else if (op_tok.text == "<=") {
      op = CompareOp::kLe;
    } else if (op_tok.text == ">") {
      op = CompareOp::kGt;
    } else if (op_tok.text == ">=") {
      op = CompareOp::kGe;
    } else {
      return Status::InvalidArgument("unknown operator '" + op_tok.raw + "'");
    }
    Next();
    CVOPT_ASSIGN_OR_RETURN(Value lit, ParseLiteral());
    return Predicate::Compare(col, op, std::move(lit));
  }

  Lexer lexer_;
  Token cur_;
  Status lex_error_;
  int open_ = 0;
  int height_ = 0;
};

}  // namespace

Result<ParsedQuery> ParseSql(const std::string& sql) {
  Parser parser(sql);
  Result<ParsedQuery> parsed = parser.Parse();
  CVOPT_RETURN_NOT_OK(parser.LexError());
  if (!parsed.ok()) return parsed.status();
  parsed->query.name = sql;
  return parsed;
}

}  // namespace cvopt
