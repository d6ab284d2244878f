//===--- Token.h - Modula-2+ lexical tokens ---------------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#ifndef M2C_LEX_TOKEN_H
#define M2C_LEX_TOKEN_H

#include "support/SourceLocation.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <string_view>

namespace m2c {

/// All token kinds; see TokenKinds.def.
enum class TokenKind : uint8_t {
#define TOK(Name) Name,
#include "lex/TokenKinds.def"
};

/// Returns the fixed spelling of keywords/punctuation, or "" for variable
/// tokens (identifiers, literals).
std::string_view tokenKindSpelling(TokenKind Kind);

/// One lexical token.
///
/// Identifiers and string literals carry their interned spelling; numeric
/// and character literals carry their value.
struct Token {
  TokenKind Kind = TokenKind::Unknown;
  SourceLocation Loc;
  Symbol Ident;            ///< Identifier or string-literal spelling.
  int64_t IntValue = 0;    ///< Integer or character-literal value.
  double RealValue = 0.0;  ///< Real-literal value.

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
  bool isEof() const { return Kind == TokenKind::Eof; }
};

} // namespace m2c

#endif // M2C_LEX_TOKEN_H
