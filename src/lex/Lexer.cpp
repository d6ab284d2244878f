//===--- Lexer.cpp - Modula-2+ lexical analyzer ---------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "lex/Lexer.h"

#include "sched/ExecContext.h"

#include <array>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace m2c;

std::string_view m2c::tokenKindSpelling(TokenKind Kind) {
  switch (Kind) {
#define KEYWORD(Name, Spelling)                                                \
  case TokenKind::Name:                                                        \
    return Spelling;
#define PUNCT(Name, Spelling)                                                  \
  case TokenKind::Name:                                                        \
    return Spelling;
#include "lex/TokenKinds.def"
  default:
    return "";
  }
}

namespace {

/// Reserved-word lookup, bucketed by (first letter, length).  Every
/// bucket holds at most three keywords (RECORD/REPEAT/RETURN), so a
/// probe is a couple of memcmps on short strings — much cheaper than
/// hashing the spelling into an unordered_map, and this probe runs once
/// per uppercase-looking identifier.
struct KeywordBuckets {
  struct Entry {
    std::string_view Spelling;
    TokenKind Kind = TokenKind::Identifier;
  };
  struct Bucket {
    std::array<Entry, 3> Entries;
    unsigned Count = 0;
  };
  // Keywords are 2..14 chars (13 lengths) starting with A..Z.
  std::array<Bucket, 26 * 13> Buckets;

  static unsigned index(char First, size_t Len) {
    return static_cast<unsigned>(First - 'A') * 13 +
           static_cast<unsigned>(Len - 2);
  }

  KeywordBuckets() {
#define KEYWORD(Name, Spelling) add(Spelling, TokenKind::Name);
#include "lex/TokenKinds.def"
  }

  void add(std::string_view Spelling, TokenKind Kind) {
    Bucket &B = Buckets[index(Spelling.front(), Spelling.size())];
    assert(B.Count < B.Entries.size() && "keyword bucket overflow");
    B.Entries[B.Count++] = {Spelling, Kind};
  }
};

const KeywordBuckets &keywordBuckets() {
  static const KeywordBuckets Table;
  return Table;
}

/// Branch-free character classification.  The scan loops run once per
/// source character; a table load beats the libc ctype machinery (which
/// chases the locale pointer on every call).
enum : uint8_t {
  CCIdentStart = 1 << 0, // A-Z a-z
  CCIdentCont = 1 << 1,  // A-Z a-z 0-9 _
};

constexpr std::array<uint8_t, 256> CharClass = [] {
  std::array<uint8_t, 256> T{};
  for (unsigned C = 'A'; C <= 'Z'; ++C)
    T[C] = CCIdentStart | CCIdentCont;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    T[C] = CCIdentStart | CCIdentCont;
  for (unsigned C = '0'; C <= '9'; ++C)
    T[C] = CCIdentCont;
  T['_'] = CCIdentCont;
  return T;
}();

bool isIdentStart(char C) {
  return CharClass[static_cast<unsigned char>(C)] & CCIdentStart;
}
bool isIdentCont(char C) {
  return CharClass[static_cast<unsigned char>(C)] & CCIdentCont;
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isHexDigit(char C) { return isDigit(C) || (C >= 'A' && C <= 'F'); }

/// Parses a run of digits already validated for \p Base (hex digits use
/// the uppercase Modula-2 alphabet).  Avoids the std::string temporary a
/// strtoll call would need for NUL termination.
int64_t parseIntRun(std::string_view Digits, unsigned Base) {
  uint64_t Value = 0;
  for (char D : Digits) {
    unsigned Digit =
        D <= '9' ? static_cast<unsigned>(D - '0')
                 : static_cast<unsigned>(D - 'A') + 10;
    Value = Value * Base + Digit;
  }
  return static_cast<int64_t>(Value);
}

/// Every reserved word is 2..14 uppercase letters, so most identifiers
/// (anything lowercase-initial, single-letter, or long) can skip the
/// keyword hash probe entirely.
bool maybeKeyword(std::string_view Spelling) {
  return Spelling.size() >= 2 && Spelling.size() <= 14 &&
         Spelling.front() >= 'A' && Spelling.front() <= 'Z' &&
         Spelling.back() >= 'A' && Spelling.back() <= 'Z';
}

} // namespace

Lexer::Lexer(const SourceBuffer &Buf, StringInterner &Interner,
             DiagnosticsEngine &Diags)
    : Text(Buf.Text), File(Buf.Id), Interner(Interner), Diags(Diags) {}

char Lexer::peekChar(unsigned Ahead) const {
  size_t Index = Pos + Ahead;
  return Index < Text.size() ? Text[Index] : '\0';
}

char Lexer::bump() {
  assert(!atEnd() && "bump past end of input");
  char C = Text[Pos++];
  ++CharsSinceCharge;
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

void Lexer::skipWhitespaceAndComments() {
  unsigned CommentDepth = 0;
  SourceLocation CommentStart;
  while (!atEnd()) {
    char C = peekChar();
    if (CommentDepth > 0) {
      if (C == '*' && peekChar(1) == ')') {
        bump();
        bump();
        --CommentDepth;
        continue;
      }
      if (C == '(' && peekChar(1) == '*') {
        bump();
        bump();
        ++CommentDepth; // Modula-2 comments nest.
        continue;
      }
      bump();
      continue;
    }
    if (C == '(' && peekChar(1) == '*') {
      CommentStart = location();
      bump();
      bump();
      ++CommentDepth;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n' || C == '\f' ||
        C == '\v') {
      bump();
      continue;
    }
    return;
  }
  if (CommentDepth > 0)
    Diags.error(CommentStart, "unterminated comment");
}

Token Lexer::makeToken(TokenKind Kind, SourceLocation Loc) const {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  return T;
}

Token Lexer::lex() {
  skipWhitespaceAndComments();
  SourceLocation Loc = location();
  if (atEnd()) {
    sched::ctx().charge(sched::CostKind::LexChar, CharsSinceCharge);
    CharsSinceCharge = 0;
    return makeToken(TokenKind::Eof, Loc);
  }

  char C = peekChar();
  Token Result;
  if (isIdentStart(C))
    Result = lexIdentifierOrKeyword(Loc);
  else if (isDigit(C))
    Result = lexNumber(Loc);
  else if (C == '\'' || C == '"') {
    bump();
    Result = lexString(Loc, C);
  } else {
    Result = lexPunctuation(Loc);
  }

  // One thread-local context lookup per token, not one per charge.
  sched::ExecContext &Ctx = sched::ctx();
  Ctx.charge(sched::CostKind::LexChar, CharsSinceCharge);
  Ctx.charge(sched::CostKind::LexToken);
  CharsSinceCharge = 0;
  return Result;
}

void Lexer::bumpRun(size_t NewPos) {
  // The scanned run is known to contain no newlines, so line accounting
  // reduces to one column adjustment.
  Column += static_cast<uint32_t>(NewPos - Pos);
  CharsSinceCharge += NewPos - Pos;
  Pos = NewPos;
}

Token Lexer::lexIdentifierOrKeyword(SourceLocation Loc) {
  size_t Start = Pos;
  size_t End = Pos;
  while (End < Text.size() && isIdentCont(Text[End]))
    ++End;
  bumpRun(End);
  std::string_view Spelling = Text.substr(Start, End - Start);
  if (maybeKeyword(Spelling)) {
    const KeywordBuckets::Bucket &B =
        keywordBuckets()
            .Buckets[KeywordBuckets::index(Spelling.front(), Spelling.size())];
    for (unsigned I = 0; I < B.Count; ++I)
      if (std::memcmp(B.Entries[I].Spelling.data(), Spelling.data(),
                      Spelling.size()) == 0)
        return makeToken(B.Entries[I].Kind, Loc);
  }
  Token T = makeToken(TokenKind::Identifier, Loc);
  T.Ident = internIdent(Spelling);
  return T;
}

Symbol Lexer::internIdent(std::string_view Spelling) {
  // FNV-1a; identifiers are short, so this costs a few cycles and lets
  // repeat mentions bypass the interner's hash + shard lock entirely.
  uint64_t Hash = 1469598103934665603ull;
  for (char C : Spelling)
    Hash = (Hash ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  CachedIdent &E = IdentCache[Hash & (IdentCacheSize - 1)];
  if (E.Data && E.Len == Spelling.size() &&
      (E.Data == Spelling.data() ||
       std::memcmp(E.Data, Spelling.data(), E.Len) == 0))
    return E.Sym;
  Symbol Sym = Interner.intern(Spelling);
  E.Data = Spelling.data();
  E.Len = static_cast<uint32_t>(Spelling.size());
  E.Sym = Sym;
  return Sym;
}

Token Lexer::lexNumber(SourceLocation Loc) {
  size_t Start = Pos;
  // Scan the longest run of hex digits; its interpretation depends on the
  // trailing marker (H = hex, B = octal, C = char code, none = decimal).
  size_t End = Pos;
  while (End < Text.size() && isHexDigit(Text[End]))
    ++End;
  bumpRun(End);

  char Marker = atEnd() ? '\0' : peekChar();
  std::string_view Digits = Text.substr(Start, Pos - Start);

  if (Marker == 'H') {
    bump();
    Token T = makeToken(TokenKind::IntLiteral, Loc);
    T.IntValue = parseIntRun(Digits, 16);
    return T;
  }

  auto AllOctalDigits = [](std::string_view S) {
    for (char D : S)
      if (D < '0' || D > '7')
        return false;
    return !S.empty();
  };

  // The octal markers 'B' (integer) and 'C' (character code) are
  // themselves hexadecimal digits, so they end up *inside* the scanned
  // run: "777B" scans as the four "hex digits" 7,7,7,B.  Peel a trailing
  // B/C off when everything before it is octal.
  if (Digits.size() >= 2 &&
      (Digits.back() == 'B' || Digits.back() == 'C') &&
      AllOctalDigits(Digits.substr(0, Digits.size() - 1))) {
    char Suffix = Digits.back();
    Digits.remove_suffix(1);
    Token T = makeToken(Suffix == 'C' ? TokenKind::CharLiteral
                                      : TokenKind::IntLiteral,
                        Loc);
    T.IntValue = parseIntRun(Digits, 8);
    return T;
  }

  bool AllDecimal = true;
  for (char D : Digits)
    if (!isDigit(D))
      AllDecimal = false;

  if (!AllDecimal) {
    Diags.error(Loc, "hexadecimal constant requires a trailing 'H'");
    Token T = makeToken(TokenKind::IntLiteral, Loc);
    T.IntValue = parseIntRun(Digits, 16);
    return T;
  }

  // A '.' begins a real literal unless it is the '..' range operator.
  if (Marker == '.' && peekChar(1) != '.') {
    bump(); // '.'
    size_t FracStart = Pos;
    while (!atEnd() && isDigit(peekChar()))
      bump();
    if (!atEnd() && peekChar() == 'E') {
      bump();
      if (!atEnd() && (peekChar() == '+' || peekChar() == '-'))
        bump();
      if (atEnd() || !isDigit(peekChar()))
        Diags.error(location(), "missing exponent digits in real constant");
      while (!atEnd() && isDigit(peekChar()))
        bump();
    }
    (void)FracStart;
    Token T = makeToken(TokenKind::RealLiteral, Loc);
    // strtod needs NUL termination and must not read past the literal
    // (the next source char could extend its grammar, e.g. a lowercase
    // 'e'); a stack buffer covers every realistic literal length.
    std::string_view Literal = Text.substr(Start, Pos - Start);
    char Buf[64];
    if (Literal.size() < sizeof(Buf)) {
      std::memcpy(Buf, Literal.data(), Literal.size());
      Buf[Literal.size()] = '\0';
      T.RealValue = std::strtod(Buf, nullptr);
    } else {
      T.RealValue = std::strtod(std::string(Literal).c_str(), nullptr);
    }
    return T;
  }

  Token T = makeToken(TokenKind::IntLiteral, Loc);
  T.IntValue = parseIntRun(Digits, 10);
  return T;
}

Token Lexer::lexString(SourceLocation Loc, char Quote) {
  size_t Start = Pos;
  while (!atEnd() && peekChar() != Quote && peekChar() != '\n')
    bump();
  std::string_view Body = Text.substr(Start, Pos - Start);
  if (atEnd() || peekChar() != Quote)
    Diags.error(Loc, "unterminated string constant");
  else
    bump(); // closing quote
  // A single-character string is a character literal in Modula-2.
  if (Body.size() == 1) {
    Token T = makeToken(TokenKind::CharLiteral, Loc);
    T.IntValue = static_cast<unsigned char>(Body[0]);
    T.Ident = Interner.intern(Body);
    return T;
  }
  Token T = makeToken(TokenKind::StringLiteral, Loc);
  T.Ident = Interner.intern(Body);
  return T;
}

Token Lexer::lexPunctuation(SourceLocation Loc) {
  char C = bump();
  auto TwoChar = [&](char Second, TokenKind Two, TokenKind One) {
    if (!atEnd() && peekChar() == Second) {
      bump();
      return makeToken(Two, Loc);
    }
    return makeToken(One, Loc);
  };
  switch (C) {
  case '+':
    return makeToken(TokenKind::Plus, Loc);
  case '-':
    return makeToken(TokenKind::Minus, Loc);
  case '*':
    return makeToken(TokenKind::Star, Loc);
  case '/':
    return makeToken(TokenKind::Slash, Loc);
  case ':':
    return TwoChar('=', TokenKind::Assign, TokenKind::Colon);
  case '&':
    return makeToken(TokenKind::Ampersand, Loc);
  case '.':
    return TwoChar('.', TokenKind::DotDot, TokenKind::Dot);
  case ',':
    return makeToken(TokenKind::Comma, Loc);
  case ';':
    return makeToken(TokenKind::Semi, Loc);
  case '(':
    return makeToken(TokenKind::LParen, Loc);
  case ')':
    return makeToken(TokenKind::RParen, Loc);
  case '[':
    return makeToken(TokenKind::LBracket, Loc);
  case ']':
    return makeToken(TokenKind::RBracket, Loc);
  case '{':
    return makeToken(TokenKind::LBrace, Loc);
  case '}':
    return makeToken(TokenKind::RBrace, Loc);
  case '^':
    return makeToken(TokenKind::Caret, Loc);
  case '=':
    return makeToken(TokenKind::Equal, Loc);
  case '#':
    return makeToken(TokenKind::Hash, Loc);
  case '<':
    if (!atEnd() && peekChar() == '=') {
      bump();
      return makeToken(TokenKind::LessEq, Loc);
    }
    return TwoChar('>', TokenKind::NotEqual, TokenKind::Less);
  case '>':
    return TwoChar('=', TokenKind::GreaterEq, TokenKind::Greater);
  case '~':
    return makeToken(TokenKind::Tilde, Loc);
  case '|':
    return makeToken(TokenKind::Bar, Loc);
  default:
    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    return makeToken(TokenKind::Unknown, Loc);
  }
}

void Lexer::lexAll(TokenBlockQueue &Queue) {
  while (true) {
    Token T = lex();
    if (T.isEof()) {
      Queue.finish(T.Loc);
      return;
    }
    Queue.append(T);
  }
}
