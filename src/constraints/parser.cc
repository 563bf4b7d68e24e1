#include "constraints/parser.h"

#include <cctype>
#include <optional>

#include "util/string_util.h"

namespace cextend {
namespace {

enum class TokenKind {
  kIdent,    // column / keyword
  kInt,
  kString,
  kOp,       // = != < <= > >=
  kAmp,      // &
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kDot,
  kBang,
  kPlus,
  kMinus,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  int64_t number = 0;
};

/// Hand-rolled tokenizer; keeps error positions readable.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '"' || c == '\'') {
        CEXTEND_ASSIGN_OR_RETURN(Token t, LexString(c));
        out.push_back(std::move(t));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        CEXTEND_ASSIGN_OR_RETURN(Token t, LexNumber());
        out.push_back(std::move(t));
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdent());
        continue;
      }
      switch (c) {
        case '&':
          out.push_back({TokenKind::kAmp, "&"});
          ++pos_;
          break;
        case '(':
          out.push_back({TokenKind::kLParen, "("});
          ++pos_;
          break;
        case ')':
          out.push_back({TokenKind::kRParen, ")"});
          ++pos_;
          break;
        case '{':
          out.push_back({TokenKind::kLBrace, "{"});
          ++pos_;
          break;
        case '}':
          out.push_back({TokenKind::kRBrace, "}"});
          ++pos_;
          break;
        case ',':
          out.push_back({TokenKind::kComma, ","});
          ++pos_;
          break;
        case '.':
          out.push_back({TokenKind::kDot, "."});
          ++pos_;
          break;
        case '+':
          out.push_back({TokenKind::kPlus, "+"});
          ++pos_;
          break;
        case '-':
          out.push_back({TokenKind::kMinus, "-"});
          ++pos_;
          break;
        case '!':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            out.push_back({TokenKind::kOp, "!="});
            pos_ += 2;
          } else {
            out.push_back({TokenKind::kBang, "!"});
            ++pos_;
          }
          break;
        case '=':
          out.push_back({TokenKind::kOp, "="});
          ++pos_;
          break;
        case '<':
        case '>': {
          std::string op(1, c);
          ++pos_;
          if (pos_ < text_.size() && text_[pos_] == '=') {
            op += '=';
            ++pos_;
          }
          out.push_back({TokenKind::kOp, op});
          break;
        }
        default:
          return Status::InvalidArgument(
              StrFormat("unexpected character '%c' at offset %zu", c, pos_));
      }
    }
    out.push_back({TokenKind::kEnd, ""});
    return out;
  }

 private:
  StatusOr<Token> LexString(char quote) {
    ++pos_;  // consume the quote
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      value += text_[pos_++];
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated string literal");
    }
    ++pos_;  // closing quote
    return Token{TokenKind::kString, std::move(value)};
  }

  StatusOr<Token> LexNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    Token t{TokenKind::kInt, std::string(text_.substr(start, pos_ - start))};
    std::optional<int64_t> number = ParseInt64(t.text);
    if (!number.has_value()) {
      return Status::InvalidArgument(
          StrFormat("integer literal out of range at offset %zu: %s", start,
                    t.text.c_str()));
    }
    t.number = *number;
    return t;
  }

  Token LexIdent() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '/')) {
      ++pos_;
    }
    return Token{TokenKind::kIdent,
                 std::string(text_.substr(start, pos_ - start))};
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Recursive-descent parser over a token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  Token Next() { return tokens_[pos_++]; }

  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(TokenKind kind, const char* what) {
    if (!Accept(kind)) {
      return Status::InvalidArgument(
          StrFormat("expected %s, got '%s'", what, Peek().text.c_str()));
    }
    return Status::Ok();
  }

  StatusOr<CompareOp> ParseOp() {
    if (Peek().kind == TokenKind::kIdent && Peek().text == "IN") {
      ++pos_;
      return CompareOp::kIn;
    }
    if (Peek().kind != TokenKind::kOp) {
      return Status::InvalidArgument("expected a comparison operator, got '" +
                                     Peek().text + "'");
    }
    std::string op = Next().text;
    if (op == "=") return CompareOp::kEq;
    if (op == "!=") return CompareOp::kNe;
    if (op == "<") return CompareOp::kLt;
    if (op == "<=") return CompareOp::kLe;
    if (op == ">") return CompareOp::kGt;
    if (op == ">=") return CompareOp::kGe;
    return Status::InvalidArgument("unknown operator " + op);
  }

  StatusOr<Value> ParseValue() {
    if (Peek().kind == TokenKind::kString) return Value(Next().text);
    bool negative = Accept(TokenKind::kMinus);
    if (Peek().kind == TokenKind::kInt) {
      int64_t v = Next().number;
      return Value(negative ? -v : v);
    }
    return Status::InvalidArgument("expected a value, got '" + Peek().text +
                                   "'");
  }

  StatusOr<std::vector<Value>> ParseValueSet() {
    CEXTEND_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    std::vector<Value> values;
    do {
      CEXTEND_ASSIGN_OR_RETURN(Value v, ParseValue());
      values.push_back(std::move(v));
    } while (Accept(TokenKind::kComma));
    CEXTEND_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "'}'"));
    return values;
  }

  /// One predicate atom: IDENT op value | IDENT IN {...}.
  Status ParsePredicateAtom(Predicate& pred) {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected a column name, got '" +
                                     Peek().text + "'");
    }
    std::string column = Next().text;
    CEXTEND_ASSIGN_OR_RETURN(CompareOp op, ParseOp());
    if (op == CompareOp::kIn) {
      CEXTEND_ASSIGN_OR_RETURN(std::vector<Value> values, ParseValueSet());
      pred.In(std::move(column), std::move(values));
      return Status::Ok();
    }
    CEXTEND_ASSIGN_OR_RETURN(Value value, ParseValue());
    pred.AddAtom(Atom{std::move(column), op, std::move(value), {}});
    return Status::Ok();
  }

  StatusOr<Predicate> ParseConjunction() {
    Predicate pred;
    do {
      CEXTEND_RETURN_IF_ERROR(ParsePredicateAtom(pred));
    } while (Accept(TokenKind::kAmp));
    return pred;
  }

  /// Tuple reference `tN.Column`; returns (index, column).
  StatusOr<std::pair<int, std::string>> ParseTupleRef() {
    if (Peek().kind != TokenKind::kIdent || Peek().text.size() < 2 ||
        Peek().text[0] != 't') {
      return Status::InvalidArgument("expected a tuple reference like t0, "
                                     "got '" + Peek().text + "'");
    }
    std::string ident = Next().text;
    auto index = ParseInt64(std::string_view(ident).substr(1));
    if (!index.has_value() || *index < 0) {
      return Status::InvalidArgument("bad tuple variable: " + ident);
    }
    CEXTEND_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.'"));
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected a column after '" + ident +
                                     ".'");
    }
    return std::make_pair(static_cast<int>(*index), Next().text);
  }

  bool AtTupleRef() const {
    const Token& t = Peek();
    return t.kind == TokenKind::kIdent && t.text.size() >= 2 &&
           t.text[0] == 't' &&
           std::isdigit(static_cast<unsigned char>(t.text[1]));
  }

  /// One DC atom; records the highest tuple index seen in `max_tuple`.
  Status ParseDcAtom(std::vector<DcAtom>& atoms, int& max_tuple) {
    CEXTEND_ASSIGN_OR_RETURN(auto lhs, ParseTupleRef());
    max_tuple = std::max(max_tuple, lhs.first);
    CEXTEND_ASSIGN_OR_RETURN(CompareOp op, ParseOp());
    DcAtom atom;
    atom.lhs_tuple = lhs.first;
    atom.lhs_column = lhs.second;
    atom.op = op;
    if (op == CompareOp::kIn) {
      CEXTEND_ASSIGN_OR_RETURN(atom.rhs_values, ParseValueSet());
      atoms.push_back(std::move(atom));
      return Status::Ok();
    }
    if (AtTupleRef()) {
      CEXTEND_ASSIGN_OR_RETURN(auto rhs, ParseTupleRef());
      max_tuple = std::max(max_tuple, rhs.first);
      atom.is_binary = true;
      atom.rhs_tuple = rhs.first;
      atom.rhs_column = rhs.second;
      if (Accept(TokenKind::kPlus)) {
        CEXTEND_ASSIGN_OR_RETURN(Value off, ParseValue());
        if (!off.is_int())
          return Status::InvalidArgument("offset must be an integer");
        atom.offset = off.AsInt();
      } else if (Accept(TokenKind::kMinus)) {
        CEXTEND_ASSIGN_OR_RETURN(Value off, ParseValue());
        if (!off.is_int())
          return Status::InvalidArgument("offset must be an integer");
        atom.offset = -off.AsInt();
      }
    } else {
      CEXTEND_ASSIGN_OR_RETURN(atom.rhs_value, ParseValue());
    }
    atoms.push_back(std::move(atom));
    return Status::Ok();
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

StatusOr<Parser> MakeParser(std::string_view text) {
  Lexer lexer(text);
  CEXTEND_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  return Parser(std::move(tokens));
}

}  // namespace

StatusOr<Predicate> ParsePredicate(std::string_view text) {
  CEXTEND_ASSIGN_OR_RETURN(Parser parser, MakeParser(text));
  CEXTEND_ASSIGN_OR_RETURN(Predicate pred, parser.ParseConjunction());
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kEnd, "end of input"));
  return pred;
}

StatusOr<CardinalityConstraint> ParseCc(std::string_view text,
                                        const Schema& r1_schema,
                                        const Schema& r2_schema,
                                        std::string name) {
  CEXTEND_ASSIGN_OR_RETURN(Parser parser, MakeParser(text));
  if (parser.Peek().kind != TokenKind::kIdent ||
      parser.Peek().text != "COUNT") {
    return Status::InvalidArgument("a CC must start with COUNT(...)");
  }
  parser.Next();
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kLParen, "'('"));
  CEXTEND_ASSIGN_OR_RETURN(Predicate joint, parser.ParseConjunction());
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kRParen, "')'"));
  if (parser.Peek().kind != TokenKind::kOp || parser.Peek().text != "=") {
    return Status::InvalidArgument("expected '= <count>' after COUNT(...)");
  }
  parser.Next();
  if (parser.Peek().kind != TokenKind::kInt) {
    return Status::InvalidArgument("CC target must be an integer");
  }
  int64_t target = parser.Next().number;
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kEnd, "end of input"));

  CardinalityConstraint cc;
  cc.name = std::move(name);
  cc.target = target;
  for (const Atom& atom : joint.atoms()) {
    bool in_r1 = r1_schema.Contains(atom.column);
    bool in_r2 = r2_schema.Contains(atom.column);
    if (in_r1 && in_r2) {
      return Status::InvalidArgument("ambiguous column (in both schemas): " +
                                     atom.column);
    }
    if (!in_r1 && !in_r2) {
      return Status::InvalidArgument("unknown column: " + atom.column);
    }
    (in_r1 ? cc.r1_condition : cc.r2_condition).AddAtom(atom);
  }
  return cc;
}

StatusOr<DenialConstraint> ParseDc(std::string_view text, std::string name) {
  CEXTEND_ASSIGN_OR_RETURN(Parser parser, MakeParser(text));
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kBang, "'!'"));
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kLParen, "'('"));
  std::vector<DcAtom> atoms;
  int max_tuple = -1;
  do {
    CEXTEND_RETURN_IF_ERROR(parser.ParseDcAtom(atoms, max_tuple));
  } while (parser.Accept(TokenKind::kAmp));
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kRParen, "')'"));
  CEXTEND_RETURN_IF_ERROR(parser.Expect(TokenKind::kEnd, "end of input"));
  if (max_tuple < 1) {
    return Status::InvalidArgument(
        "a denial constraint needs at least tuple variables t0 and t1");
  }
  DenialConstraint dc(max_tuple + 1, std::move(name));
  for (DcAtom& atom : atoms) {
    if (atom.is_binary) {
      dc.Binary(atom.lhs_tuple, atom.lhs_column, atom.op, atom.rhs_tuple,
                atom.rhs_column, atom.offset);
    } else if (atom.op == CompareOp::kIn) {
      dc.UnaryIn(atom.lhs_tuple, atom.lhs_column, atom.rhs_values);
    } else {
      dc.Unary(atom.lhs_tuple, atom.lhs_column, atom.op, atom.rhs_value);
    }
  }
  return dc;
}

StatusOr<ConstraintSpec> ParseConstraintSpec(std::string_view text,
                                             const Schema& r1_schema,
                                             const Schema& r2_schema) {
  ConstraintSpec spec;
  size_t line_no = 0;
  for (const std::string& raw : StrSplit(text, '\n')) {
    ++line_no;
    std::string_view line = StrTrim(raw);
    if (line.empty() || line[0] == '#') continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected 'cc <name>: ...' or 'dc <name>: ...'",
                    line_no));
    }
    std::string_view head = StrTrim(line.substr(0, colon));
    std::string_view body = StrTrim(line.substr(colon + 1));
    size_t space = head.find(' ');
    std::string kind(head.substr(0, space));
    std::string name =
        space == std::string_view::npos
            ? StrFormat("line%zu", line_no)
            : std::string(StrTrim(head.substr(space + 1)));
    if (kind == "cc") {
      auto cc = ParseCc(body, r1_schema, r2_schema, name);
      if (!cc.ok()) {
        return Status::InvalidArgument(StrFormat(
            "line %zu: %s", line_no, cc.status().message().c_str()));
      }
      spec.ccs.push_back(std::move(cc).value());
    } else if (kind == "dc") {
      auto dc = ParseDc(body, name);
      if (!dc.ok()) {
        return Status::InvalidArgument(StrFormat(
            "line %zu: %s", line_no, dc.status().message().c_str()));
      }
      spec.dcs.push_back(std::move(dc).value());
    } else {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown constraint kind '%s'", line_no,
                    kind.c_str()));
    }
  }
  return spec;
}

}  // namespace cextend
