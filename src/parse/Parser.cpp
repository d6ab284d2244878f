//===--- Parser.cpp - Modula-2+ recursive-descent parser ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "sched/ExecContext.h"

#include <cassert>

using namespace m2c;
using namespace m2c::ast;

//===----------------------------------------------------------------------===//
// Token plumbing
//===----------------------------------------------------------------------===//

const Token &Parser::advance() {
  const Token &T = Reader.next();
  if (!T.isEof()) {
    ++Consumed;
    sched::ctx().charge(sched::CostKind::ParseToken);
  }
  return T;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *What) {
  if (accept(Kind))
    return true;
  std::string Msg = std::string("expected ") + What;
  std::string_view Spelling = tokenKindSpelling(Kind);
  if (!Spelling.empty())
    Msg += std::string(" ('") + std::string(Spelling) + "')";
  error(peek().Loc, Msg);
  return false;
}

Symbol Parser::expectIdentifier(const char *What) {
  if (check(TokenKind::Identifier))
    return advance().Ident;
  error(peek().Loc, std::string("expected ") + What);
  return Symbol();
}

void Parser::skipTo(std::initializer_list<TokenKind> Sync) {
  while (!peek().isEof()) {
    for (TokenKind K : Sync)
      if (check(K))
        return;
    advance();
  }
}

//===----------------------------------------------------------------------===//
// Modules and imports
//===----------------------------------------------------------------------===//

std::vector<ImportClause> Parser::parseImports() {
  std::vector<ImportClause> Imports;
  while (check(TokenKind::KwImport) || check(TokenKind::KwFrom)) {
    ImportClause Clause;
    Clause.Loc = peek().Loc;
    if (accept(TokenKind::KwFrom)) {
      Clause.FromModule = expectIdentifier("module name after FROM");
      expect(TokenKind::KwImport, "IMPORT");
    } else {
      advance(); // IMPORT
    }
    do {
      Clause.Names.push_back(expectIdentifier("imported name"));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Semi, ";");
    Imports.push_back(std::move(Clause));
  }
  return Imports;
}

DefinitionModule Parser::parseDefinitionModule() {
  DefinitionModule Mod;
  accept(TokenKind::KwSafe); // Modula-2+ SAFE prefix.
  accept(TokenKind::KwUnsafe);
  Mod.Loc = peek().Loc;
  expect(TokenKind::KwDefinition, "DEFINITION");
  expect(TokenKind::KwModule, "MODULE");
  Mod.Name = expectIdentifier("module name");
  expect(TokenKind::Semi, ";");
  Mod.Imports = parseImports();
  if (accept(TokenKind::KwExport)) {
    accept(TokenKind::KwQualified);
    do {
      Mod.Exports.push_back(expectIdentifier("exported name"));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Semi, ";");
  }
  Mod.Decls = parseDeclBlock(/*HeadingsOnly=*/true);
  expect(TokenKind::KwEnd, "END");
  expectIdentifier("module name after END");
  expect(TokenKind::Dot, ".");
  return Mod;
}

ImplementationModule Parser::parseImplementationModule() {
  ImplementationModule Mod;
  accept(TokenKind::KwSafe);
  accept(TokenKind::KwUnsafe);
  Mod.Loc = peek().Loc;
  Mod.IsImplementation = accept(TokenKind::KwImplementation);
  expect(TokenKind::KwModule, "MODULE");
  Mod.Name = expectIdentifier("module name");
  expect(TokenKind::Semi, ";");
  Mod.Imports = parseImports();
  Mod.Decls = parseDeclBlock(/*HeadingsOnly=*/false);
  if (accept(TokenKind::KwBegin))
    Mod.Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  expectIdentifier("module name after END");
  expect(TokenKind::Dot, ".");
  return Mod;
}

StmtList Parser::parseImplModuleBody() {
  StmtList Body;
  if (accept(TokenKind::KwBegin))
    Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  expectIdentifier("module name after END");
  expect(TokenKind::Dot, ".");
  return Body;
}

StmtList Parser::parseProcBody() {
  StmtList Body;
  if (accept(TokenKind::KwBegin))
    Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  expectIdentifier("procedure name after END");
  expect(TokenKind::Semi, ";");
  return Body;
}

Parser::ModuleIntro Parser::parseModuleIntro() {
  ModuleIntro Intro;
  accept(TokenKind::KwSafe);
  accept(TokenKind::KwUnsafe);
  Intro.Loc = peek().Loc;
  if (accept(TokenKind::KwDefinition)) {
    Intro.IsDefinition = true;
  } else {
    Intro.IsImplementation = accept(TokenKind::KwImplementation);
  }
  expect(TokenKind::KwModule, "MODULE");
  Intro.Name = expectIdentifier("module name");
  expect(TokenKind::Semi, ";");
  Intro.Imports = parseImports();
  if (Intro.IsDefinition && accept(TokenKind::KwExport)) {
    accept(TokenKind::KwQualified);
    do {
      Intro.Exports.push_back(expectIdentifier("exported name"));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Semi, ";");
  }
  return Intro;
}

std::vector<Decl *> Parser::parseTopDecls(bool HeadingsOnly) {
  return parseDeclBlock(HeadingsOnly);
}

ProcHeading Parser::parseProcStreamHeading() {
  Quiet = true;
  ProcHeading Heading = parseProcHeading();
  expect(TokenKind::Semi, ";");
  Quiet = false;
  return Heading;
}

void Parser::drainToEof() {
  while (!peek().isEof())
    advance();
}

void Parser::parseDefModuleEnd() {
  expect(TokenKind::KwEnd, "END");
  expectIdentifier("module name after END");
  expect(TokenKind::Dot, ".");
}

ProcDecl *Parser::parseProcedureStream() {
  // The stream carries this procedure's full text; only *nested* procedure
  // bodies were split away (they follow Mode inside parseDeclBlock).
  ProcHeading H = parseProcHeading();
  SourceLocation Loc = H.Loc;
  expect(TokenKind::Semi, ";");
  std::vector<Decl *> Decls = parseDeclBlock(/*HeadingsOnly=*/false);
  StmtList Body;
  if (accept(TokenKind::KwBegin))
    Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  expectIdentifier("procedure name after END");
  expect(TokenKind::Semi, ";");
  return Arena.create<ProcDecl>(Loc, std::move(H), std::move(Decls),
                                std::move(Body));
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

std::vector<Decl *> Parser::parseDeclBlock(bool HeadingsOnly) {
  ++DeclBlockDepth;
  std::vector<Decl *> Decls;
  size_t Reported = 0;
  // Hand outermost declarations to the sink as soon as they are parsed:
  // "fast processing of the declaration parts of streams will assist in
  // resolving DKY blockages" (paper section 3).
  auto Flush = [&] {
    if (DeclBlockDepth != 1 || !Sink)
      return;
    for (; Reported < Decls.size(); ++Reported)
      Sink(Decls[Reported]);
  };
  while (true) {
    if (check(TokenKind::KwConst)) {
      advance();
      parseConstSection(Decls);
    } else if (check(TokenKind::KwType)) {
      advance();
      parseTypeSection(Decls);
    } else if (check(TokenKind::KwVar)) {
      advance();
      parseVarSection(Decls);
    } else if (check(TokenKind::KwProcedure)) {
      if (Decl *D = parseProcedureDecl(HeadingsOnly))
        Decls.push_back(D);
    } else {
      Flush();
      --DeclBlockDepth;
      return Decls;
    }
    Flush();
  }
}

void Parser::parseConstSection(std::vector<Decl *> &Out) {
  while (check(TokenKind::Identifier)) {
    SourceLocation Loc = peek().Loc;
    Symbol Name = advance().Ident;
    expect(TokenKind::Equal, "=");
    Expr *Value = parseExpression();
    expect(TokenKind::Semi, ";");
    Out.push_back(Arena.create<ConstDecl>(Loc, Name, Value));
  }
}

void Parser::parseTypeSection(std::vector<Decl *> &Out) {
  while (check(TokenKind::Identifier)) {
    SourceLocation Loc = peek().Loc;
    Symbol Name = advance().Ident;
    TypeExpr *Type = nullptr;
    if (accept(TokenKind::Equal))
      Type = parseTypeExpr();
    // else: opaque type "TYPE T;" (definition modules only; the semantic
    // analyzer checks the context).
    expect(TokenKind::Semi, ";");
    Out.push_back(Arena.create<TypeDecl>(Loc, Name, Type));
  }
}

void Parser::parseVarSection(std::vector<Decl *> &Out) {
  while (check(TokenKind::Identifier)) {
    SourceLocation Loc = peek().Loc;
    std::vector<Symbol> Names;
    do {
      Names.push_back(expectIdentifier("variable name"));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Colon, ":");
    TypeExpr *Type = parseTypeExpr();
    expect(TokenKind::Semi, ";");
    Out.push_back(Arena.create<VarDecl>(Loc, std::move(Names), Type));
  }
}

ProcHeading Parser::parseProcHeading() {
  ProcHeading H;
  H.Loc = peek().Loc;
  expect(TokenKind::KwProcedure, "PROCEDURE");
  H.Name = expectIdentifier("procedure name");
  if (check(TokenKind::LParen))
    H.Params = parseFormalParams();
  if (accept(TokenKind::Colon)) {
    SourceLocation Loc = peek().Loc;
    Symbol Qual, Name = expectIdentifier("result type name");
    if (accept(TokenKind::Dot)) {
      Qual = Name;
      Name = expectIdentifier("result type name");
    }
    H.Result = Arena.create<NamedTypeExpr>(Loc, Qual, Name);
  }
  return H;
}

std::vector<FormalParam> Parser::parseFormalParams() {
  std::vector<FormalParam> Params;
  expect(TokenKind::LParen, "(");
  if (accept(TokenKind::RParen))
    return Params;
  do {
    FormalParam P;
    P.Loc = peek().Loc;
    P.IsVar = accept(TokenKind::KwVar);
    do {
      P.Names.push_back(expectIdentifier("parameter name"));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Colon, ":");
    if (accept(TokenKind::KwArray)) {
      expect(TokenKind::KwOf, "OF");
      P.IsOpenArray = true;
    }
    P.Type = parseNamedOrSubrangeType();
    Params.push_back(std::move(P));
  } while (accept(TokenKind::Semi));
  expect(TokenKind::RParen, ")");
  return Params;
}

Decl *Parser::parseProcedureDecl(bool HeadingsOnly) {
  ProcHeading H = parseProcHeading();
  SourceLocation Loc = H.Loc;
  expect(TokenKind::Semi, ";");
  if (HeadingsOnly || Mode == ParserMode::SplitStream)
    return Arena.create<ProcHeadingDecl>(Loc, std::move(H));

  // Sequential mode: local declarations, body, END name ;
  std::vector<Decl *> Decls = parseDeclBlock(/*HeadingsOnly=*/false);
  StmtList Body;
  if (accept(TokenKind::KwBegin))
    Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  expectIdentifier("procedure name after END");
  expect(TokenKind::Semi, ";");
  return Arena.create<ProcDecl>(Loc, std::move(H), std::move(Decls),
                                std::move(Body));
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TypeExpr *Parser::parseTypeExpr() {
  SourceLocation Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::Identifier:
  case TokenKind::LBracket:
    return parseNamedOrSubrangeType();
  case TokenKind::LParen: {
    advance();
    std::vector<Symbol> Literals;
    do {
      Literals.push_back(expectIdentifier("enumeration literal"));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::RParen, ")");
    return Arena.create<EnumTypeExpr>(Loc, std::move(Literals));
  }
  case TokenKind::KwArray: {
    advance();
    TypeExpr *Index = parseNamedOrSubrangeType();
    expect(TokenKind::KwOf, "OF");
    TypeExpr *Element = parseTypeExpr();
    return Arena.create<ArrayTypeExpr>(Loc, Index, Element);
  }
  case TokenKind::KwRecord:
    advance();
    return parseRecordType(Loc);
  case TokenKind::KwPointer: {
    advance();
    expect(TokenKind::KwTo, "TO");
    // Modula-2+ allows "REF T"-style safe pointers; we accept the plain
    // form only.
    TypeExpr *Pointee = parseTypeExpr();
    return Arena.create<PointerTypeExpr>(Loc, Pointee);
  }
  case TokenKind::KwSet: {
    advance();
    expect(TokenKind::KwOf, "OF");
    TypeExpr *Element = parseNamedOrSubrangeType();
    return Arena.create<SetTypeExpr>(Loc, Element);
  }
  case TokenKind::KwProcedure:
    advance();
    return parseProcType(Loc);
  default:
    error(Loc, "expected a type");
    skipTo({TokenKind::Semi, TokenKind::KwEnd});
    return Arena.create<NamedTypeExpr>(Loc, Symbol(), Symbol());
  }
}

TypeExpr *Parser::parseNamedOrSubrangeType() {
  SourceLocation Loc = peek().Loc;
  Symbol Base;
  if (check(TokenKind::Identifier)) {
    Symbol Name = advance().Ident;
    if (accept(TokenKind::Dot)) {
      Symbol Member = expectIdentifier("type name");
      if (!check(TokenKind::LBracket))
        return Arena.create<NamedTypeExpr>(Loc, Name, Member);
      Base = Member; // "Mod.T[lo..hi]" — keep the member as base name.
    } else if (!check(TokenKind::LBracket)) {
      return Arena.create<NamedTypeExpr>(Loc, Symbol(), Name);
    } else {
      Base = Name;
    }
  }
  expect(TokenKind::LBracket, "[");
  Expr *Lo = parseExpression();
  expect(TokenKind::DotDot, "..");
  Expr *Hi = parseExpression();
  expect(TokenKind::RBracket, "]");
  return Arena.create<SubrangeTypeExpr>(Loc, Base, Lo, Hi);
}

TypeExpr *Parser::parseRecordType(SourceLocation Loc) {
  std::vector<FieldGroup> Fields;
  while (!check(TokenKind::KwEnd) && !peek().isEof()) {
    if (accept(TokenKind::Semi))
      continue;
    FieldGroup G;
    G.Loc = peek().Loc;
    do {
      G.Names.push_back(expectIdentifier("field name"));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Colon, ":");
    G.Type = parseTypeExpr();
    Fields.push_back(std::move(G));
    if (!check(TokenKind::KwEnd))
      expect(TokenKind::Semi, ";");
  }
  expect(TokenKind::KwEnd, "END");
  return Arena.create<RecordTypeExpr>(Loc, std::move(Fields));
}

TypeExpr *Parser::parseProcType(SourceLocation Loc) {
  std::vector<FormalType> Formals;
  if (accept(TokenKind::LParen)) {
    if (!check(TokenKind::RParen)) {
      do {
        FormalType F;
        F.IsVar = accept(TokenKind::KwVar);
        if (accept(TokenKind::KwArray)) {
          expect(TokenKind::KwOf, "OF");
          F.IsOpenArray = true;
        }
        F.Type = parseNamedOrSubrangeType();
        Formals.push_back(F);
      } while (accept(TokenKind::Comma));
    }
    expect(TokenKind::RParen, ")");
  }
  TypeExpr *Result = nullptr;
  if (accept(TokenKind::Colon))
    Result = parseNamedOrSubrangeType();
  return Arena.create<ProcTypeExpr>(Loc, std::move(Formals), Result);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

StmtList Parser::parseStatementSequence() {
  StmtList Stmts;
  while (true) {
    while (accept(TokenKind::Semi))
      ;
    switch (peek().Kind) {
    case TokenKind::KwEnd:
    case TokenKind::KwElse:
    case TokenKind::KwElsif:
    case TokenKind::KwUntil:
    case TokenKind::KwExcept:
    case TokenKind::KwFinally:
    case TokenKind::Bar:
    case TokenKind::Eof:
      return Stmts;
    default:
      break;
    }
    if (Stmt *S = parseStatement())
      Stmts.push_back(S);
    else
      skipTo({TokenKind::Semi, TokenKind::KwEnd, TokenKind::KwElse,
              TokenKind::KwElsif, TokenKind::KwUntil, TokenKind::Bar});
  }
}

Stmt *Parser::parseStatement() {
  SourceLocation Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwCase:
    return parseCase();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwRepeat:
    return parseRepeat();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwLoop:
    return parseLoop();
  case TokenKind::KwWith:
    return parseWith();
  case TokenKind::KwTry:
    return parseTry();
  case TokenKind::KwLock:
    return parseLock();
  case TokenKind::KwExit:
    advance();
    return Arena.create<ExitStmt>(Loc);
  case TokenKind::KwReturn: {
    advance();
    Expr *Value = nullptr;
    switch (peek().Kind) {
    case TokenKind::Semi:
    case TokenKind::KwEnd:
    case TokenKind::KwElse:
    case TokenKind::KwElsif:
    case TokenKind::KwUntil:
    case TokenKind::KwExcept:
    case TokenKind::KwFinally:
    case TokenKind::Bar:
      break;
    default:
      Value = parseExpression();
      break;
    }
    return Arena.create<ReturnStmt>(Loc, Value);
  }
  case TokenKind::Identifier: {
    Expr *Designator = parseDesignatorOrCall();
    if (accept(TokenKind::Assign)) {
      Expr *Value = parseExpression();
      return Arena.create<AssignStmt>(Loc, Designator, Value);
    }
    return Arena.create<ProcCallStmt>(Loc, Designator);
  }
  default:
    error(Loc, "expected a statement");
    return nullptr;
  }
}

Stmt *Parser::parseIf() {
  SourceLocation Loc = peek().Loc;
  std::vector<IfArm> Arms;
  advance(); // IF
  while (true) {
    IfArm Arm;
    Arm.Cond = parseExpression();
    expect(TokenKind::KwThen, "THEN");
    Arm.Body = parseStatementSequence();
    Arms.push_back(std::move(Arm));
    if (!accept(TokenKind::KwElsif))
      break;
  }
  StmtList ElseBody;
  if (accept(TokenKind::KwElse))
    ElseBody = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  return Arena.create<IfStmt>(Loc, std::move(Arms), std::move(ElseBody));
}

Stmt *Parser::parseCase() {
  SourceLocation Loc = peek().Loc;
  advance(); // CASE
  Expr *Subject = parseExpression();
  expect(TokenKind::KwOf, "OF");
  std::vector<CaseArm> Arms;
  bool HasElse = false;
  StmtList ElseBody;
  while (true) {
    while (accept(TokenKind::Bar))
      ;
    if (check(TokenKind::KwEnd) || check(TokenKind::KwElse) || peek().isEof())
      break;
    CaseArm Arm;
    do {
      CaseLabel Label;
      Label.Lo = parseExpression();
      if (accept(TokenKind::DotDot))
        Label.Hi = parseExpression();
      Arm.Labels.push_back(Label);
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Colon, ":");
    Arm.Body = parseStatementSequence();
    Arms.push_back(std::move(Arm));
  }
  if (accept(TokenKind::KwElse)) {
    HasElse = true;
    ElseBody = parseStatementSequence();
  }
  expect(TokenKind::KwEnd, "END");
  return Arena.create<CaseStmt>(Loc, Subject, std::move(Arms),
                                std::move(ElseBody), HasElse);
}

Stmt *Parser::parseWhile() {
  SourceLocation Loc = peek().Loc;
  advance(); // WHILE
  Expr *Cond = parseExpression();
  expect(TokenKind::KwDo, "DO");
  StmtList Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  return Arena.create<WhileStmt>(Loc, Cond, std::move(Body));
}

Stmt *Parser::parseRepeat() {
  SourceLocation Loc = peek().Loc;
  advance(); // REPEAT
  StmtList Body = parseStatementSequence();
  expect(TokenKind::KwUntil, "UNTIL");
  Expr *Cond = parseExpression();
  return Arena.create<RepeatStmt>(Loc, std::move(Body), Cond);
}

Stmt *Parser::parseFor() {
  SourceLocation Loc = peek().Loc;
  advance(); // FOR
  Symbol Var = expectIdentifier("control variable");
  expect(TokenKind::Assign, ":=");
  Expr *From = parseExpression();
  expect(TokenKind::KwTo, "TO");
  Expr *To = parseExpression();
  Expr *By = nullptr;
  if (accept(TokenKind::KwBy))
    By = parseExpression();
  expect(TokenKind::KwDo, "DO");
  StmtList Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  return Arena.create<ForStmt>(Loc, Var, From, To, By, std::move(Body));
}

Stmt *Parser::parseLoop() {
  SourceLocation Loc = peek().Loc;
  advance(); // LOOP
  StmtList Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  return Arena.create<LoopStmt>(Loc, std::move(Body));
}

Stmt *Parser::parseWith() {
  SourceLocation Loc = peek().Loc;
  advance(); // WITH
  Expr *Record = parseDesignatorOrCall();
  expect(TokenKind::KwDo, "DO");
  StmtList Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  return Arena.create<WithStmt>(Loc, Record, std::move(Body));
}

Stmt *Parser::parseTry() {
  SourceLocation Loc = peek().Loc;
  advance(); // TRY
  StmtList Body = parseStatementSequence();
  bool IsFinally = false;
  StmtList Handler;
  if (accept(TokenKind::KwFinally)) {
    IsFinally = true;
    Handler = parseStatementSequence();
  } else if (accept(TokenKind::KwExcept)) {
    // An optional exception-name list ("IO.Error, Overflow:") precedes
    // the handler.  Distinguish it from a handler that simply starts
    // with an identifier (an assignment or call) by looking for the
    // ',' or ':' that must follow a name.
    auto LooksLikeExceptionName = [this] {
      if (!check(TokenKind::Identifier))
        return false;
      if (peek(1).is(TokenKind::Colon) || peek(1).is(TokenKind::Comma))
        return true;
      return peek(1).is(TokenKind::Dot) &&
             peek(2).is(TokenKind::Identifier) &&
             (peek(3).is(TokenKind::Colon) || peek(3).is(TokenKind::Comma));
    };
    while (LooksLikeExceptionName()) {
      advance();
      if (accept(TokenKind::Dot))
        expectIdentifier("exception name");
      if (!accept(TokenKind::Comma))
        break;
    }
    accept(TokenKind::Colon);
    Handler = parseStatementSequence();
  } else {
    error(peek().Loc, "expected EXCEPT or FINALLY in TRY statement");
  }
  expect(TokenKind::KwEnd, "END");
  return Arena.create<TryExceptStmt>(Loc, std::move(Body), std::move(Handler),
                                     IsFinally);
}

Stmt *Parser::parseLock() {
  SourceLocation Loc = peek().Loc;
  advance(); // LOCK
  Expr *Mutex = parseExpression();
  expect(TokenKind::KwDo, "DO");
  StmtList Body = parseStatementSequence();
  expect(TokenKind::KwEnd, "END");
  return Arena.create<LockStmt>(Loc, Mutex, std::move(Body));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseExpression() {
  Expr *Lhs = parseSimpleExpression();
  BinaryOp Op;
  switch (peek().Kind) {
  case TokenKind::Equal:
    Op = BinaryOp::Equal;
    break;
  case TokenKind::Hash:
  case TokenKind::NotEqual:
    Op = BinaryOp::NotEqual;
    break;
  case TokenKind::Less:
    Op = BinaryOp::Less;
    break;
  case TokenKind::LessEq:
    Op = BinaryOp::LessEq;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Greater;
    break;
  case TokenKind::GreaterEq:
    Op = BinaryOp::GreaterEq;
    break;
  case TokenKind::KwIn:
    Op = BinaryOp::In;
    break;
  default:
    return Lhs;
  }
  SourceLocation Loc = advance().Loc;
  Expr *Rhs = parseSimpleExpression();
  return Arena.create<BinaryExpr>(Loc, Op, Lhs, Rhs);
}

Expr *Parser::parseSimpleExpression() {
  SourceLocation Loc = peek().Loc;
  bool Negate = false;
  if (accept(TokenKind::Minus))
    Negate = true;
  else
    accept(TokenKind::Plus);
  Expr *Result = parseTerm();
  if (Negate)
    Result = Arena.create<UnaryExpr>(Loc, UnaryOp::Minus, Result);
  while (true) {
    BinaryOp Op;
    switch (peek().Kind) {
    case TokenKind::Plus:
      Op = BinaryOp::Add;
      break;
    case TokenKind::Minus:
      Op = BinaryOp::Sub;
      break;
    case TokenKind::KwOr:
      Op = BinaryOp::Or;
      break;
    default:
      return Result;
    }
    SourceLocation OpLoc = advance().Loc;
    Expr *Rhs = parseTerm();
    Result = Arena.create<BinaryExpr>(OpLoc, Op, Result, Rhs);
  }
}

Expr *Parser::parseTerm() {
  Expr *Result = parseFactor();
  while (true) {
    BinaryOp Op;
    switch (peek().Kind) {
    case TokenKind::Star:
      Op = BinaryOp::Mul;
      break;
    case TokenKind::Slash:
      Op = BinaryOp::RealDiv;
      break;
    case TokenKind::KwDiv:
      Op = BinaryOp::IntDiv;
      break;
    case TokenKind::KwMod:
      Op = BinaryOp::Mod;
      break;
    case TokenKind::KwAnd:
    case TokenKind::Ampersand:
      Op = BinaryOp::And;
      break;
    default:
      return Result;
    }
    SourceLocation OpLoc = advance().Loc;
    Expr *Rhs = parseFactor();
    Result = Arena.create<BinaryExpr>(OpLoc, Op, Result, Rhs);
  }
}

Expr *Parser::parseFactor() {
  SourceLocation Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::IntLiteral:
    return Arena.create<IntLitExpr>(Loc, advance().IntValue);
  case TokenKind::RealLiteral:
    return Arena.create<RealLitExpr>(Loc, advance().RealValue);
  case TokenKind::CharLiteral:
    return Arena.create<CharLitExpr>(Loc,
                                     static_cast<char>(advance().IntValue));
  case TokenKind::StringLiteral:
    return Arena.create<StringLitExpr>(Loc, advance().Ident);
  case TokenKind::LParen: {
    advance();
    Expr *Inner = parseExpression();
    expect(TokenKind::RParen, ")");
    return Inner;
  }
  case TokenKind::KwNot:
  case TokenKind::Tilde: {
    advance();
    Expr *Operand = parseFactor();
    return Arena.create<UnaryExpr>(Loc, UnaryOp::Not, Operand);
  }
  case TokenKind::LBrace:
    return parseSetConstructor(Symbol(), Loc);
  case TokenKind::Identifier:
    return parseDesignatorOrCall();
  default:
    error(Loc, "expected an expression");
    advance();
    return Arena.create<IntLitExpr>(Loc, 0);
  }
}

Expr *Parser::parseDesignatorOrCall() {
  SourceLocation Loc = peek().Loc;
  Symbol First = expectIdentifier("identifier");

  // "TypeName{...}" is a set constructor.
  if (check(TokenKind::LBrace))
    return parseSetConstructor(First, Loc);

  auto *D = Arena.create<DesignatorExpr>(Loc, First);
  while (true) {
    SourceLocation SelLoc = peek().Loc;
    if (accept(TokenKind::Dot)) {
      Selector S;
      S.SelKind = Selector::Kind::Field;
      S.Loc = SelLoc;
      S.Field = expectIdentifier("field or member name");
      D->selectors().push_back(std::move(S));
    } else if (accept(TokenKind::LBracket)) {
      Selector S;
      S.SelKind = Selector::Kind::Index;
      S.Loc = SelLoc;
      do {
        S.Indexes.push_back(parseExpression());
      } while (accept(TokenKind::Comma));
      expect(TokenKind::RBracket, "]");
      D->selectors().push_back(std::move(S));
    } else if (accept(TokenKind::Caret)) {
      Selector S;
      S.SelKind = Selector::Kind::Deref;
      S.Loc = SelLoc;
      D->selectors().push_back(std::move(S));
    } else {
      break;
    }
  }

  if (check(TokenKind::LParen)) {
    SourceLocation CallLoc = advance().Loc;
    std::vector<Expr *> Args;
    if (!check(TokenKind::RParen)) {
      do {
        Args.push_back(parseExpression());
      } while (accept(TokenKind::Comma));
    }
    expect(TokenKind::RParen, ")");
    return Arena.create<CallExpr>(CallLoc, D, std::move(Args));
  }
  return D;
}

Expr *Parser::parseSetConstructor(Symbol TypeName, SourceLocation Loc) {
  expect(TokenKind::LBrace, "{");
  std::vector<SetElement> Elements;
  if (!check(TokenKind::RBrace)) {
    do {
      SetElement E;
      E.Lo = parseExpression();
      if (accept(TokenKind::DotDot))
        E.Hi = parseExpression();
      Elements.push_back(E);
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RBrace, "}");
  return Arena.create<SetConstructorExpr>(Loc, TypeName, std::move(Elements));
}
