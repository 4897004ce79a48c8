// C lexer, preprocessor, and browser (decl/uses/scoping) tests.
#include <gtest/gtest.h>

#include "src/cc/browser.h"
#include "src/cc/clex.h"
#include "src/cc/cpp.h"

namespace help {
namespace {

std::vector<std::string> TokenTexts(std::string_view src) {
  auto toks = CLex(src, "t.c");
  EXPECT_TRUE(toks.ok()) << toks.message();
  std::vector<std::string> out;
  for (const CToken& t : toks.value()) {
    if (t.kind != CTok::kEof) {
      out.emplace_back(t.text);
    }
  }
  return out;
}

TEST(CLex, BasicTokens) {
  EXPECT_EQ(TokenTexts("int n = 42;"),
            (std::vector<std::string>{"int", "n", "=", "42", ";"}));
  EXPECT_EQ(TokenTexts("a->b ++x"), (std::vector<std::string>{"a", "->", "b", "++", "x"}));
  EXPECT_EQ(TokenTexts("x <<= 2"), (std::vector<std::string>{"x", "<<=", "2"}));
}

TEST(CLex, CommentsSkipped) {
  EXPECT_EQ(TokenTexts("a /* comment\nacross lines */ b // tail\nc"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CLex, StringsAndChars) {
  auto toks = CLex("s = \"a \\\" b\"; c = 'x';", "t.c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[2].kind, CTok::kString);
  EXPECT_EQ(toks.value()[2].text, "\"a \\\" b\"");
  EXPECT_EQ(toks.value()[6].kind, CTok::kCharConst);
}

TEST(CLex, CoordinatesTrackLinesAndColumns) {
  auto toks = CLex("int a;\n  char b;", "file.c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].line, 1);
  EXPECT_EQ(toks.value()[0].col, 1);
  EXPECT_EQ(toks.value()[3].text, "char");
  EXPECT_EQ(toks.value()[3].line, 2);
  EXPECT_EQ(toks.value()[3].col, 3);
}

TEST(CLex, LineDirectiveResetsCoordinates) {
  auto toks = CLex("#line 100 \"other.h\"\nint x;\n#line 5 \"t.c\"\nint y;", "t.c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].file, "other.h");
  EXPECT_EQ(toks.value()[0].line, 100);
  EXPECT_EQ(toks.value()[3].text, "int");
  EXPECT_EQ(toks.value()[3].file, "t.c");
  EXPECT_EQ(toks.value()[3].line, 5);
}

TEST(CLex, OtherDirectivesSkipped) {
  EXPECT_EQ(TokenTexts("#define X 1\n#ifdef Y\nint a;\n#endif\n"),
            (std::vector<std::string>{"int", "a", ";"}));
}

TEST(CLex, ContinuedDirective) {
  EXPECT_EQ(TokenTexts("#define M(a) \\\n  (a+1)\nint z;"),
            (std::vector<std::string>{"int", "z", ";"}));
}

TEST(CLex, Errors) {
  EXPECT_FALSE(CLex("/* never closed", "t.c").ok());
  EXPECT_FALSE(CLex("\"never closed", "t.c").ok());
  EXPECT_FALSE(CLex("\"newline\nin string\"", "t.c").ok());
}

TEST(CLex, IndentedDirectiveSkipped) {
  EXPECT_EQ(TokenTexts("int a;\n  #define N 3\nint b;\n\t# 7 \"x.h\"\nint c;"),
            (std::vector<std::string>{"int", "a", ";", "int", "b", ";", "int", "c", ";"}));
  auto toks = CLex("int a;\n\t#line 40 \"x.h\"\nint c;", "t.c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[3].file, "x.h");
  EXPECT_EQ(toks.value()[3].line, 40);
}

TEST(CLex, HashAfterTokenIsNotADirective) {
  EXPECT_EQ(TokenTexts("a # b\n/* c */ #x\n"),
            (std::vector<std::string>{"a", "#", "b", "#", "x"}));
}

TEST(CLex, KeywordsRecognized) {
  auto toks = CLex("struct typedef while uchar", "t.c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].kind, CTok::kKeyword);
  EXPECT_EQ(toks.value()[1].kind, CTok::kKeyword);
  EXPECT_EQ(toks.value()[2].kind, CTok::kKeyword);
  EXPECT_EQ(toks.value()[3].kind, CTok::kIdent);  // Plan 9 typedef, not keyword
}

// --- Preprocessor -------------------------------------------------------------

class CppTest : public ::testing::Test {
 protected:
  Vfs vfs_;
};

TEST_F(CppTest, InlinesLocalIncludeWithLineMarkers) {
  vfs_.MkdirAll("/src");
  vfs_.WriteFile("/src/a.h", "int from_header;\n");
  vfs_.WriteFile("/src/a.c", "#include \"a.h\"\nint from_c;\n");
  auto out = Preprocess(vfs_, "/src/a.c");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out.value().find("int from_header;"), std::string::npos);
  EXPECT_NE(out.value().find("#line 1 \"/src/a.h\""), std::string::npos);
  EXPECT_NE(out.value().find("#line 2 \"/src/a.c\""), std::string::npos);
}

TEST_F(CppTest, IncludeOncePerTranslationUnit) {
  vfs_.MkdirAll("/src");
  vfs_.WriteFile("/src/h.h", "int once;\n");
  vfs_.WriteFile("/src/a.c", "#include \"h.h\"\n#include \"h.h\"\n");
  auto out = Preprocess(vfs_, "/src/a.c");
  ASSERT_TRUE(out.ok());
  size_t first = out.value().find("int once;");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.value().find("int once;", first + 1), std::string::npos);
}

TEST_F(CppTest, SystemIncludeFromSysInclude) {
  vfs_.MkdirAll("/sys/include");
  vfs_.WriteFile("/sys/include/u.h", "typedef unsigned char uchar;\n");
  vfs_.WriteFile("/a.c", "#include <u.h>\n");
  auto out = Preprocess(vfs_, "/a.c");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out.value().find("typedef unsigned char uchar;"), std::string::npos);
}

TEST_F(CppTest, MissingSystemIncludeSkippedLocalErrors) {
  vfs_.WriteFile("/a.c", "#include <nothere.h>\nint x;\n");
  auto out = Preprocess(vfs_, "/a.c");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out.value().find("int x;"), std::string::npos);
  vfs_.WriteFile("/b.c", "#include \"gone.h\"\n");
  EXPECT_FALSE(Preprocess(vfs_, "/b.c").ok());
}

TEST_F(CppTest, NestedIncludes) {
  vfs_.MkdirAll("/s");
  vfs_.WriteFile("/s/inner.h", "int inner;\n");
  vfs_.WriteFile("/s/outer.h", "#include \"inner.h\"\nint outer;\n");
  vfs_.WriteFile("/s/m.c", "#include \"outer.h\"\n");
  auto out = Preprocess(vfs_, "/s/m.c");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out.value().find("int inner;"), std::string::npos);
  EXPECT_NE(out.value().find("int outer;"), std::string::npos);
}

TEST_F(CppTest, IncludeInsideCommentIsNotExpanded) {
  vfs_.WriteFile("/a.c", "/*\n#include \"gone.h\"\n*/\nint a;\n");
  auto out = Preprocess(vfs_, "/a.c");
  ASSERT_TRUE(out.ok()) << out.message();
  EXPECT_NE(out.value().find("#include \"gone.h\""), std::string::npos);
  CBrowser b;
  Status s = b.AddFile(vfs_, "/a.c");
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_NE(b.FindGlobal("a"), nullptr);
  EXPECT_EQ(b.FindGlobal("a")->line, 4);
}

TEST_F(CppTest, BlanksBetweenHashAndInclude) {
  vfs_.MkdirAll("/src");
  vfs_.WriteFile("/src/h.h", "int fromh;\n");
  vfs_.WriteFile("/src/a.c", "# include \"h.h\"\n#\tinclude \"h.h\"\nvoid f(void){ fromh = 1; }\n");
  auto out = Preprocess(vfs_, "/src/a.c");
  ASSERT_TRUE(out.ok()) << out.message();
  EXPECT_NE(out.value().find("int fromh;"), std::string::npos);
  CBrowser b;
  ASSERT_TRUE(b.AddFile(vfs_, "/src/a.c").ok());
  const CSymbol* fromh = b.FindGlobal("fromh");
  ASSERT_NE(fromh, nullptr);
  EXPECT_EQ(fromh->kind, CSymKind::kGlobalVar);
  EXPECT_EQ(fromh->file, "/src/h.h");
  EXPECT_EQ(fromh->line, 1);
}

TEST_F(CppTest, UnclosedIncludeNameIsAnError) {
  vfs_.WriteFile("/a.c", "int a;\n#include \"h.h\n");
  auto out = Preprocess(vfs_, "/a.c");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.message(), "/a.c:2: bad #include");
}

// --- Browser -------------------------------------------------------------------

class BrowserTest : public ::testing::Test {
 protected:
  void Add(std::string_view text, std::string_view name) {
    Status s = b_.AddTranslationUnit(text, name);
    ASSERT_TRUE(s.ok()) << s.message();
  }
  // Formats UsesOf a symbol as "file:line file:line …".
  std::string Uses(const CSymbol* sym) {
    std::string out;
    for (const CUse& u : b_.UsesOf(sym->id)) {
      if (!out.empty()) {
        out += " ";
      }
      out += std::string(u.file) + ":" + std::to_string(u.line);
    }
    return out;
  }
  CBrowser b_;
};

TEST_F(BrowserTest, GlobalVariableDeclAndUses) {
  Add("int n;\n"          // 1
      "void f(void)\n"    // 2
      "{\n"               // 3
      "\tn = 0;\n"        // 4
      "}\n",              // 5
      "a.c");
  const CSymbol* n = b_.FindGlobal("n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->kind, CSymKind::kGlobalVar);
  EXPECT_EQ(n->line, 1);
  EXPECT_EQ(Uses(n), "a.c:1 a.c:4");
}

TEST_F(BrowserTest, LocalsShadowGlobals) {
  Add("int n;\n"
      "void f(void)\n"
      "{\n"
      "\tint n;\n"
      "\tn = 1;\n"
      "}\n"
      "void g(void)\n"
      "{\n"
      "\tn = 2;\n"
      "}\n",
      "a.c");
  const CSymbol* global = b_.FindGlobal("n");
  ASSERT_NE(global, nullptr);
  // The global's uses: its decl and g's assignment — not f's local.
  EXPECT_EQ(Uses(global), "a.c:1 a.c:9");
}

TEST_F(BrowserTest, ParamsShadowAndResolve) {
  Add("int x;\n"
      "int f(int x)\n"
      "{\n"
      "\treturn x;\n"
      "}\n",
      "a.c");
  const CSymbol* global = b_.FindGlobal("x");
  EXPECT_EQ(Uses(global), "a.c:1");  // param use on line 4 is not the global
  const CSymbol* at4 = b_.ResolveAt("x", "a.c", 4);
  ASSERT_NE(at4, nullptr);
  EXPECT_EQ(at4->kind, CSymKind::kParam);
}

TEST_F(BrowserTest, BlockScopesNest) {
  Add("void f(void)\n"
      "{\n"
      "\tint v;\n"
      "\t{\n"
      "\t\tint v;\n"
      "\t\tv = 1;\n"
      "\t}\n"
      "\tv = 2;\n"
      "}\n",
      "a.c");
  const CSymbol* inner = b_.ResolveAt("v", "a.c", 6);
  const CSymbol* outer = b_.ResolveAt("v", "a.c", 8);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(inner->line, 5);
  EXPECT_EQ(outer->line, 3);
}

TEST_F(BrowserTest, TypedefsEnableDeclarationParsing) {
  Add("typedef struct Page Page;\n"
      "struct Page\n"
      "{\n"
      "\tPage *link;\n"
      "\tint nwin;\n"
      "};\n"
      "Page *freelist;\n"
      "void f(void)\n"
      "{\n"
      "\tPage *p;\n"
      "\tp = freelist;\n"
      "}\n",
      "a.c");
  const CSymbol* freelist = b_.FindGlobal("freelist");
  ASSERT_NE(freelist, nullptr);
  EXPECT_EQ(Uses(freelist), "a.c:7 a.c:11");
  const CSymbol* p = b_.ResolveAt("p", "a.c", 11);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind, CSymKind::kLocal);
}

TEST_F(BrowserTest, FieldAccessIsNotAUse) {
  Add("typedef struct T T;\n"
      "struct T { int n; };\n"
      "int n;\n"
      "void f(T *t)\n"
      "{\n"
      "\tt->n = 1;\n"
      "\tn = 2;\n"
      "}\n",
      "a.c");
  const CSymbol* global = b_.FindGlobal("n");
  EXPECT_EQ(Uses(global), "a.c:3 a.c:7");  // line 6's ->n is a field
}

TEST_F(BrowserTest, FunctionDefinitionPreferredOverPrototype) {
  Add("void f(void);\n"
      "void f(void)\n"
      "{\n"
      "}\n",
      "a.c");
  const CSymbol* f = b_.FindFunc("f");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->is_definition);
  EXPECT_EQ(f->line, 2);
}

TEST_F(BrowserTest, ImplicitExternalsUnify) {
  Add("void f(char *s)\n"
      "{\n"
      "\tstrlen(s);\n"
      "\tstrlen(s);\n"
      "}\n",
      "a.c");
  const CSymbol* strlen_sym = b_.FindGlobal("strlen");
  ASSERT_NE(strlen_sym, nullptr);
  EXPECT_EQ(strlen_sym->kind, CSymKind::kImplicit);
  EXPECT_EQ(b_.UsesOf(strlen_sym->id).size(), 2u);
}

TEST_F(BrowserTest, HeadersSharedAcrossTUsYieldOneSymbol) {
  std::string header_as_inlined =
      "#line 1 \"/src/d.h\"\n"
      "int shared;\n";
  Add(header_as_inlined + "#line 2 \"/src/a.c\"\nvoid fa(void) { shared = 1; }\n",
      "/src/a.c");
  Add(header_as_inlined + "#line 2 \"/src/b.c\"\nvoid fb(void) { shared = 2; }\n",
      "/src/b.c");
  const CSymbol* shared = b_.FindGlobal("shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(Uses(shared), "/src/a.c:2 /src/b.c:2 /src/d.h:1");
}

TEST_F(BrowserTest, LabelsAndGotoAreNotUses) {
  Add("int Again;\n"
      "void f(void)\n"
      "{\n"
      "Again:\n"
      "\tgoto Again;\n"
      "}\n",
      "a.c");
  const CSymbol* again = b_.FindGlobal("Again");
  EXPECT_EQ(Uses(again), "a.c:1");
}

TEST_F(BrowserTest, EnumConstants) {
  Add("enum { kOne, kTwo = 5 };\n"
      "int f(void)\n"
      "{\n"
      "\treturn kTwo;\n"
      "}\n",
      "a.c");
  const CSymbol* k = b_.FindGlobal("kTwo");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->kind, CSymKind::kEnumConst);
  EXPECT_EQ(Uses(k), "a.c:1 a.c:4");
}

TEST_F(BrowserTest, FunctionPointerFieldAndCast) {
  Add("typedef struct Cmd Cmd;\n"
      "struct Cmd { void (*f)(int); };\n"
      "int n;\n"
      "void go(Cmd *c)\n"
      "{\n"
      "\t(*c->f)((int)n);\n"
      "}\n",
      "a.c");
  const CSymbol* n = b_.FindGlobal("n");
  EXPECT_EQ(Uses(n), "a.c:3 a.c:6");
}

TEST_F(BrowserTest, IndentedDirectiveDoesNotSwallowDeclarations) {
  Add("int a;\n"
      "  #define N 3\n"
      "int b;\n"
      "void f(void){ b = a; }\n",
      "a.c");
  const CSymbol* b = b_.FindGlobal("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->kind, CSymKind::kGlobalVar);
  EXPECT_EQ(b->line, 3);
  EXPECT_EQ(Uses(b), "a.c:3 a.c:4");
}

TEST_F(BrowserTest, TypedefNamesStayInTheirTranslationUnit) {
  Add("typedef int T;\n", "a.c");
  Add("void f(void)\n"
      "{\n"
      "\tint T;\n"
      "\tT = 1;\n"
      "}\n",
      "b.c");
  const CSymbol* t = b_.ResolveAt("T", "b.c", 4);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->kind, CSymKind::kLocal);
  EXPECT_EQ(t->line, 3);
  EXPECT_EQ(Uses(t), "b.c:3 b.c:4");
}

TEST_F(BrowserTest, LocalTypedefDoesNotStall) {
  Add("int x;\n"
      "void f(void)\n"
      "{\n"
      "\ttypedef int T;\n"
      "\tx = 1;\n"
      "}\n",
      "a.c");
  EXPECT_EQ(Uses(b_.FindGlobal("x")), "a.c:1 a.c:5");
}

TEST_F(BrowserTest, CaseExpressionsRecordUses) {
  Add("int mode;\n"
      "enum { kA };\n"
      "void f(void)\n"
      "{\n"
      "\tswitch(mode){\n"
      "\tcase kA:\n"
      "\t\tbreak;\n"
      "\tdefault:\n"
      "\t\tbreak;\n"
      "\t}\n"
      "}\n",
      "a.c");
  EXPECT_EQ(Uses(b_.FindGlobal("mode")), "a.c:1 a.c:5");
  EXPECT_EQ(Uses(b_.FindGlobal("kA")), "a.c:2 a.c:6");
}

}  // namespace
}  // namespace help
