//===--- LexTest.cpp - Lexer and token-queue unit tests --------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "lex/Lexer.h"
#include "lex/TokenBlockQueue.h"
#include "sched/ThreadedExecutor.h"
#include "support/VirtualFileSystem.h"

#include <gtest/gtest.h>

using namespace m2c;

namespace {

struct LexFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  DiagnosticsEngine Diags;

  std::vector<Token> lexAll(const std::string &Source) {
    FileId Id = Files.addFile("test.mod", Source);
    Lexer Lex(Files.buffer(Id), Interner, Diags);
    std::vector<Token> Tokens;
    while (true) {
      Token T = Lex.lex();
      Tokens.push_back(T);
      if (T.isEof())
        return Tokens;
    }
  }
};

TEST(Lexer, KeywordsAndIdentifiers) {
  LexFixture F;
  auto Tokens = F.lexAll("MODULE Hello; BEGIN END Hello.");
  ASSERT_EQ(Tokens.size(), 8u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwModule);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(F.Interner.spelling(Tokens[1].Ident), "Hello");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Semi);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::KwBegin);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::KwEnd);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[6].Kind, TokenKind::Dot);
  EXPECT_EQ(Tokens[7].Kind, TokenKind::Eof);
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Lexer, KeywordsAreCaseSensitive) {
  LexFixture F;
  auto Tokens = F.lexAll("begin BEGIN Begin");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::KwBegin);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
}

TEST(Lexer, IntegerLiteralForms) {
  LexFixture F;
  auto Tokens = F.lexAll("42 0 777B 0FFH 15C");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[0].IntValue, 42);
  EXPECT_EQ(Tokens[1].IntValue, 0);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[2].IntValue, 0777);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[3].IntValue, 0xFF);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::CharLiteral);
  EXPECT_EQ(Tokens[4].IntValue, 015);
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Lexer, RealLiterals) {
  LexFixture F;
  auto Tokens = F.lexAll("3.14 2.0E3 1.5E-2");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Tokens[0].RealValue, 3.14);
  EXPECT_DOUBLE_EQ(Tokens[1].RealValue, 2000.0);
  EXPECT_DOUBLE_EQ(Tokens[2].RealValue, 0.015);
}

TEST(Lexer, RangeOperatorVsRealLiteral) {
  LexFixture F;
  auto Tokens = F.lexAll("[1..10]");
  ASSERT_EQ(Tokens.size(), 6u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::LBracket);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::DotDot);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::RBracket);
}

TEST(Lexer, StringsAndChars) {
  LexFixture F;
  auto Tokens = F.lexAll("'hello' \"world\" 'x' \"\"");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(F.Interner.spelling(Tokens[0].Ident), "hello");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(F.Interner.spelling(Tokens[1].Ident), "world");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::CharLiteral);
  EXPECT_EQ(Tokens[2].IntValue, 'x');
  EXPECT_EQ(Tokens[3].Kind, TokenKind::StringLiteral);
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Lexer, NestedComments) {
  LexFixture F;
  auto Tokens = F.lexAll("a (* outer (* inner *) still outer *) b");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Lexer, UnterminatedCommentIsAnError) {
  LexFixture F;
  F.lexAll("a (* never closed");
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(Lexer, PunctuationCluster) {
  LexFixture F;
  auto Tokens = F.lexAll(":= <= >= <> # ^ .. . : < >");
  TokenKind Expected[] = {TokenKind::Assign,   TokenKind::LessEq,
                          TokenKind::GreaterEq, TokenKind::NotEqual,
                          TokenKind::Hash,      TokenKind::Caret,
                          TokenKind::DotDot,    TokenKind::Dot,
                          TokenKind::Colon,     TokenKind::Less,
                          TokenKind::Greater,   TokenKind::Eof};
  ASSERT_EQ(Tokens.size(), std::size(Expected));
  for (size_t I = 0; I < Tokens.size(); ++I)
    EXPECT_EQ(Tokens[I].Kind, Expected[I]) << "token " << I;
}

TEST(Lexer, TracksLineAndColumn) {
  LexFixture F;
  auto Tokens = F.lexAll("a\n  b\nccc d");
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Column, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Column, 3u);
  EXPECT_EQ(Tokens[2].Loc.Line, 3u);
  EXPECT_EQ(Tokens[3].Loc.Column, 5u);
}

TEST(TokenBlockQueue, SingleThreadRoundTrip) {
  LexFixture F;
  FileId Id = F.Files.addFile("q.mod", "MODULE Q; BEGIN END Q.");
  TokenBlockQueue Queue("q");
  Lexer Lex(F.Files.buffer(Id), F.Interner, F.Diags);
  Lex.lexAll(Queue);

  TokenBlockQueue::Reader Reader(Queue);
  EXPECT_EQ(Reader.next().Kind, TokenKind::KwModule);
  EXPECT_EQ(Reader.peek().Kind, TokenKind::Identifier);
  EXPECT_EQ(Reader.peek(1).Kind, TokenKind::Semi);
  EXPECT_EQ(Reader.next().Kind, TokenKind::Identifier);
  // Drain to Eof; next() at Eof must not advance.
  while (!Reader.next().isEof())
    ;
  size_t Pos = Reader.position();
  EXPECT_TRUE(Reader.next().isEof());
  EXPECT_EQ(Reader.position(), Pos);
}

TEST(TokenBlockQueue, MultipleIndependentReaders) {
  TokenBlockQueue Queue("multi");
  Token T;
  T.Kind = TokenKind::Identifier;
  for (int I = 0; I < 200; ++I) {
    T.IntValue = I;
    Queue.append(T);
  }
  Queue.finish(SourceLocation());
  TokenBlockQueue::Reader A(Queue), B(Queue);
  for (int I = 0; I < 200; ++I) {
    EXPECT_EQ(A.next().IntValue, I);
    if (I % 2 == 0) {
      EXPECT_EQ(B.next().IntValue, I / 2);
    }
  }
  EXPECT_TRUE(A.next().isEof());
}

TEST(TokenBlockQueue, ConcurrentProducerConsumer) {
  using namespace m2c::sched;
  // Producer (Lexor class) streams 1000 tokens; consumer reads them with
  // barrier waits under the threaded executor.
  for (unsigned Procs : {1u, 2u, 4u}) {
    TokenBlockQueue Queue("pc" + std::to_string(Procs));
    ThreadedExecutor Exec(Procs);
    std::shared_ptr<void> Tag = Exec.openRequest();
    std::atomic<int64_t> Sum{0};
    auto Producer = makeTask("producer", TaskClass::Lexor, [&Queue] {
      Token T;
      T.Kind = TokenKind::IntLiteral;
      for (int I = 0; I < 1000; ++I) {
        T.IntValue = I;
        Queue.append(T);
      }
      Queue.finish(SourceLocation());
    });
    auto Consumer = makeTask("consumer", TaskClass::Splitter, [&Queue, &Sum] {
      TokenBlockQueue::Reader Reader(Queue);
      while (true) {
        const Token &T = Reader.next();
        if (T.isEof())
          return;
        Sum += T.IntValue;
      }
    });
    for (const TaskPtr &T : {Producer, Consumer}) {
      T->setRequestTag(Tag);
      Exec.spawn(T);
    }
    Exec.awaitRequest(Tag);
    Exec.closeRequest(Tag);
    EXPECT_EQ(Sum.load(), 999 * 1000 / 2);
  }
}

} // namespace
