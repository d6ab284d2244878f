//===--- Parser.h - Modula-2+ recursive-descent parser ----------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses one stream's token queue into an AST.  Three entry points match
/// the three stream kinds of the paper's Figure 5: definition modules,
/// implementation (main) module bodies, and procedure streams.
///
/// In SplitStream mode the Splitter has already removed procedure bodies
/// from the stream, so a procedure heading is a complete declaration; in
/// Sequential mode (baseline compiler) headings are followed by their
/// bodies inline.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_PARSE_PARSER_H
#define M2C_PARSE_PARSER_H

#include "ast/Decl.h"
#include "lex/TokenBlockQueue.h"
#include "support/Diagnostics.h"

#include <functional>
#include <set>

namespace m2c {

/// Whether procedure bodies appear inline in the stream.
enum class ParserMode {
  Sequential,  ///< Bodies inline (no splitting happened).
  SplitStream, ///< Bodies diverted to procedure streams by the Splitter.
};

/// Recursive-descent parser for the Modula-2+ subset.
class Parser {
public:
  Parser(TokenBlockQueue::Reader Reader, ast::ASTArena &Arena,
         DiagnosticsEngine &Diags, ParserMode Mode)
      : Reader(Reader), Arena(Arena), Diags(Diags), Mode(Mode) {}

  /// DEFINITION MODULE name; imports exports decls END name.
  ast::DefinitionModule parseDefinitionModule();

  /// [IMPLEMENTATION] MODULE name; imports decls [BEGIN stmts] END name.
  ast::ImplementationModule parseImplementationModule();

  /// A split-off procedure stream: full procedure text (heading, local
  /// declarations, body), with any *nested* procedure bodies split away in
  /// SplitStream mode.
  ast::ProcDecl *parseProcedureStream();

  //===--- Two-phase entry points (concurrent compiler) -------------------===//
  //
  // The concurrent Parser/Declarations-Analyzer task parses and analyzes
  // the declarations first, marks the symbol table complete, and only
  // then builds the statement parse tree (paper section 3) — these
  // split entry points support that ordering.

  /// The module body: optional BEGIN statements, END name '.'.
  ast::StmtList parseImplModuleBody();

  /// The procedure body: optional BEGIN statements, END name ';'.
  ast::StmtList parseProcBody();

  //===--- Incremental declaration parsing --------------------------------===//
  //
  // The concurrent Parser/Declarations-Analyzer interleaves declaration
  // analysis with parsing: each top-level declaration is handed to the
  // sink the moment its text has been parsed, so procedure headings are
  // processed (and child streams released) while the rest of the stream
  // is still being read.

  /// Called after each declaration of the *outermost* declaration block
  /// is parsed.
  using DeclSink = std::function<void(ast::Decl *)>;
  void setDeclSink(DeclSink S) { Sink = std::move(S); }

  /// Module prologue: [SAFE] [IMPLEMENTATION|DEFINITION] MODULE name ';'
  /// imports (and EXPORT list for definition modules).
  struct ModuleIntro {
    SourceLocation Loc;
    Symbol Name;
    bool IsImplementation = false;
    bool IsDefinition = false;
    std::vector<ast::ImportClause> Imports;
    std::vector<Symbol> Exports;
  };
  ModuleIntro parseModuleIntro();

  /// The outermost declaration block, firing the sink per declaration.
  std::vector<ast::Decl *> parseTopDecls(bool HeadingsOnly);

  /// Trailing "END name '.'" of a definition module.
  void parseDefModuleEnd();

  /// A procedure stream's heading alone: "PROCEDURE name (...) [: T] ;".
  /// Parsed *quietly*: the parent stream already reported any syntax
  /// errors in the heading, and this re-read exists only to position the
  /// child parser past it (section 2.4).
  ast::ProcHeading parseProcStreamHeading();

  /// Consumes any remaining tokens up to end of stream.  On well-formed
  /// input the stream is already exhausted; on malformed input this
  /// waits out the producer (Splitter/Lexor), which the concurrent
  /// driver relies on before declaring a stream's child list final.
  void drainToEof();

  /// Number of tokens consumed so far.
  uint64_t tokensConsumed() const { return Consumed; }

private:
  //===--- Token plumbing -------------------------------------------------===//
  /// Reports \p Message unless the parser is in quiet mode.  Once the
  /// stream hit end-of-input, each distinct message is reported at most
  /// once: on truncated input (a half-typed edit, a torn file) every
  /// enclosing construct unwinds reporting its own missing END/terminator
  /// at the same EOF location, a cascade proportional to nesting depth
  /// with no new information in it.  The engine's render already
  /// collapses identical diagnostics, so this changes no rendered output
  /// — it bounds the raw diagnostic count (and allocation) the cascade
  /// produces.
  void error(SourceLocation Loc, const std::string &Message) {
    if (Quiet)
      return;
    if (peek().isEof() && !EofErrors.insert(Message).second)
      return;
    Diags.error(Loc, Message);
  }
  const Token &peek(unsigned Ahead = 0) { return Reader.peek(Ahead); }
  const Token &advance();
  bool check(TokenKind Kind) { return peek().is(Kind); }
  bool accept(TokenKind Kind);
  /// Consumes \p Kind or reports an error naming \p What.
  bool expect(TokenKind Kind, const char *What);
  Symbol expectIdentifier(const char *What);
  void skipTo(std::initializer_list<TokenKind> Sync);

  //===--- Modules and imports --------------------------------------------===//
  std::vector<ast::ImportClause> parseImports();

  //===--- Declarations ---------------------------------------------------===//
  /// Parses a declaration block; \p HeadingsOnly forces procedure
  /// declarations to heading form (definition modules).
  std::vector<ast::Decl *> parseDeclBlock(bool HeadingsOnly);
  void parseConstSection(std::vector<ast::Decl *> &Out);
  void parseTypeSection(std::vector<ast::Decl *> &Out);
  void parseVarSection(std::vector<ast::Decl *> &Out);
  ast::Decl *parseProcedureDecl(bool HeadingsOnly);
  ast::ProcHeading parseProcHeading();
  std::vector<ast::FormalParam> parseFormalParams();

  //===--- Types ----------------------------------------------------------===//
  ast::TypeExpr *parseTypeExpr();
  ast::TypeExpr *parseNamedOrSubrangeType();
  ast::TypeExpr *parseRecordType(SourceLocation Loc);
  ast::TypeExpr *parseProcType(SourceLocation Loc);

  //===--- Statements -----------------------------------------------------===//
  ast::StmtList parseStatementSequence();
  ast::Stmt *parseStatement();
  ast::Stmt *parseIf();
  ast::Stmt *parseCase();
  ast::Stmt *parseWhile();
  ast::Stmt *parseRepeat();
  ast::Stmt *parseFor();
  ast::Stmt *parseLoop();
  ast::Stmt *parseWith();
  ast::Stmt *parseTry();
  ast::Stmt *parseLock();

  //===--- Expressions ----------------------------------------------------===//
  ast::Expr *parseExpression();
  ast::Expr *parseSimpleExpression();
  ast::Expr *parseTerm();
  ast::Expr *parseFactor();
  ast::Expr *parseDesignatorOrCall();
  ast::Expr *parseSetConstructor(Symbol TypeName, SourceLocation Loc);

  TokenBlockQueue::Reader Reader;
  ast::ASTArena &Arena;
  DiagnosticsEngine &Diags;
  ParserMode Mode;
  uint64_t Consumed = 0;
  DeclSink Sink;
  unsigned DeclBlockDepth = 0;
  bool Quiet = false;
  std::set<std::string> EofErrors; ///< Caps the truncated-input cascade.
};

} // namespace m2c

#endif // M2C_PARSE_PARSER_H
