// Differential property test for the C front end's source table. Seeded
// random include graphs (nesting, repeated and cyclic includes, includes
// beside the including file and in /sys/include, missing <system> and
// "local" headers, directives mid-file and inside comments, #line
// directives, files without a final newline) are read two ways:
//
//  1. The tokens of CSources::Unit's runs, in order, must equal, token for token,
//     CLex of the text cpp renders (Preprocess), or both must fail alike;
//     the same table, asked for the text first, must render that text.
//  2. A browser fed through AddFile must answer exactly as one fed
//     AddTranslationUnit(Preprocess(unit)): the declaration and every use
//     of the symbol at every identifier occurrence in every file. Half the
//     worlds are programs whose units share headers (MakeSharedWorld).
//  3. CLexIncludes, which cpp's text path scans with, must report the
//     same includes and errors as CLex, file by file.
//
// Runs under ASan/UBSan too (ctest label `property`): a unit's tokens view
// strings the table owns.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/cc/browser.h"
#include "src/cc/clex.h"
#include "src/cc/cpp.h"
#include "src/obs/trace.h"

namespace help {
namespace {

struct World {
  Vfs vfs;
  std::vector<std::string> units;  // the .c files
  std::vector<std::string> files;  // every file written
};

class Gen {
 public:
  explicit Gen(uint32_t seed) : rng_(seed) {}

  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool Chance(int percent) { return Pick(100) < percent; }

  // A random name from a small pool, so files share and shadow names.
  std::string Name(const char* prefix) { return prefix + std::to_string(Pick(6)); }

  // A header in /sys/include names only its neighbours.
  std::string Include(bool sys) {
    static const char* kLocal[] = {"h0.h", "h1.h", "h2.h", "s0.h", "sub/d.h", "../p/h1.h"};
    static const char* kSys[] = {"s0.h", "s1.h", "s2.h", "h2.h"};
    static const char* kForms[] = {"#include", "# include", "  #include", "#\tinclude"};
    std::string form = kForms[Pick(4)];
    if (sys || Chance(40)) {
      bool quoted = Chance(30);
      std::string name = Chance(10) ? "nosys.h" : kSys[Pick(4)];
      return form + (quoted ? " \"" + name + "\"" : " <" + name + ">");
    }
    return form + " \"" + (Chance(2) ? "gone.h" : kLocal[Pick(6)]) + "\"";
  }

  std::string Line(bool sys) {
    switch (Pick(13)) {
      case 0:
      case 1:
      case 2:
        return Include(sys);
      case 3:
        return "/*\n" + Include(false) + "\n*/";
      case 4:
        return "// " + Include(false);
      case 5:
        return Pick(2) != 0 ? "#define M(a) \\\n  ((a)+1)" : "#ifdef X\n#endif";
      case 6:
        return "#line " + std::to_string(10 + Pick(90)) + " \"other.c\"";
      case 7:
        return "typedef int " + Name("T") + ";";
      case 8:
        return (Chance(30) ? "extern " : "") + std::string("int ") + Name("g") + ";";
      case 9:
        return "struct " + Name("S") + " { int x; " + Name("T") + " y; };";
      case 10: {
        // Literals that hold comment openers, quotes and directives, and
        // slashes that open nothing; now and then one left open.
        static const char* kLiterals[] = {
            "\"a /* b\"", "'/'", "'\"'", "\"\\\"#include \\\"gone.h\\\"\"", "\"// c\"",
            "'\\''", "8 / 2", "\"x\" \"/*\""};
        std::string lit = Chance(3) ? "\"open" : kLiterals[Pick(8)];
        return "char *" + Name("g") + " = " + lit + ";";
      }
      default: {
        std::string f = "void " + Name("f") + "(int " + Name("p") + ")\n{\n";
        f += "\t" + Name("T") + " " + Name("l") + ";\n";
        f += "\t" + Name("l") + " = " + Name("p") + " + " + Name("g") + ";\n";
        f += "\t" + Name("f") + "(" + Name("g") + ");\n}";
        return f;
      }
    }
  }

  std::string File(bool sys) {
    std::string text;
    for (int n = 2 + Pick(7); n > 0; n--) {
      text += Line(sys) + "\n";
    }
    if (Chance(20)) {
      text.pop_back();  // no final newline
    }
    return text;
  }

 private:
  std::mt19937 rng_;
};

void MakeWorld(uint32_t seed, World* out) {
  Gen g(seed);
  World& w = *out;
  w.vfs.MkdirAll("/p/sub");
  w.vfs.MkdirAll("/sys/include");
  auto put = [&](const std::string& path) {
    w.vfs.WriteFile(path, g.File(HasPrefix(path, "/sys/")));
    w.files.push_back(path);
  };
  for (const char* h : {"/p/h0.h", "/p/h1.h", "/p/h2.h", "/p/sub/d.h", "/p/sub/h0.h"}) {
    if (g.Chance(85)) {
      put(h);
    }
  }
  for (const char* h : {"/sys/include/s0.h", "/sys/include/s1.h", "/sys/include/s2.h",
                        "/sys/include/h2.h"}) {
    if (g.Chance(80)) {
      put(h);
    }
  }
  if (g.Chance(30)) {
    put("/p/s0.h");  // shadows <s0.h> for "s0.h"
  }
  for (int i = 1 + g.Pick(3); i > 0; i--) {
    std::string unit = StrFormat("/p/u%d.c", i);
    put(unit);
    w.units.push_back(unit);
  }
}

// A world whose units share headers, as a program's .c files do: every
// unit includes some of the same headers, in one order or in its own. The
// headers declare typedefs, struct tags named before their bodies,
// prototypes and globals, and use names that only some unit's body binds
// (a global, or a typedef the body declares before its includes). Bodies
// declare typedefs and globals before, between and after the includes.
class SharedGen : public Gen {
 public:
  using Gen::Gen;

  std::string HeaderLine(int self) {
    switch (Pick(11)) {
      case 0:
        return "typedef int " + Name("T") + ";";
      case 1: {
        std::string s = Name("S");
        return "typedef struct " + s + " " + s + ";";
      }
      case 2:
        return "struct " + Name("S") + " { " + Name("T") + " " + Name("m") + "; " + Name("S") +
               " *next; };";
      case 3:
        return (Chance(50) ? "extern " : "") + std::string("int ") + Name("g") + ";";
      case 4:
        return Name("T") + " *" + Name("g") + ";";
      case 5:
        return "void " + Name("f") + "(" + Name("T") + " a, int);";
      case 6:
        return "int " + Name("v") + " = " + Name("g") + " + " + Name("E") + ";";
      case 7:
        return "enum { " + Name("E") + ", " + Name("E") + " = " + Name("g") + " };";
      case 8:
        return "char " + Name("a") + "[" + Name("E") + "];";
      case 9:
        // A function in a header: with a parameter and a local it makes
        // symbols no other parse shares.
        return Chance(50) ? "int " + Name("f") + "(void) { return " + Name("g") + "; }"
                          : "int " + Name("f") + "(int " + Name("p") + ") { " + Name("T") + " " +
                                Name("l") + "; return " + Name("p") + " + " + Name("g") + "; }";
      default:
        // A nested include, of a header later in the list or, now and
        // then, of any header (include-once ends the cycle).
        if (int other = Chance(30) ? Pick(4) : self + 1 + Pick(3); other < 4 && other != self) {
          return StrFormat("#include \"h%d.h\"", other);
        }
        return "struct S0 *" + Name("g") + ";";
    }
  }

  std::string BodyLine() {
    switch (Pick(7)) {
      case 0:
        return "typedef int " + Name("T") + ";";
      case 1:
        return "int " + Name("g") + ";";
      case 5:
        // Names a header uses, bound here to a symbol of another kind.
        return Chance(50) ? "typedef int " + Name("g") + ";" : "int " + Name("f") + ";";
      case 6:
        return "enum { " + Name("g") + " };";
      case 2:
        return "void " + Name("f") + "(" + Name("T") + " " + Name("p") + ")\n{\n\t" + Name("T") +
               " " + Name("l") + ";\n\t" + Name("l") + " = " + Name("p") + " + " + Name("g") +
               ";\n\t" + Name("f") + "(" + Name("v") + ");\n}";
      case 3:
        return "struct " + Name("S") + " *" + Name("g") + ";";
      default:
        return Name("T") + " " + Name("g") + " = " + Name("E") + ";";
    }
  }
};

void MakeSharedWorld(uint32_t seed, World* out) {
  SharedGen g(seed);
  World& w = *out;
  w.vfs.MkdirAll("/p");
  auto put = [&](const std::string& path, const std::string& text) {
    w.vfs.WriteFile(path, text);
    w.files.push_back(path);
  };
  for (int h = 0; h < 4; h++) {
    std::string text;
    if (h == 0 && g.Chance(40)) {
      // Units that include h2 or h3 first make h0 expand the other one:
      // the same number of nested headers, not the same ones.
      text += "#include \"h2.h\"\n#include \"h3.h\"\n";
    }
    for (int n = 2 + g.Pick(6); n > 0; n--) {
      text += g.HeaderLine(h) + "\n";
    }
    if (g.Chance(15)) {
      // A declaration the including file finishes.
      static const char* kOpen[] = {"struct S1 { int m0; }", "extern int", "T1", "int g2 ="};
      text += std::string(kOpen[g.Pick(4)]) + "\n";
    }
    put(StrFormat("/p/h%d.h", h), text);
  }
  std::vector<int> order = {0, 1, 2, 3};
  for (int i = 1 + g.Pick(5); i > 0; i--) {
    // Most units keep the common order; some shuffle it or leave headers out.
    std::vector<int> mine = order;
    if (g.Chance(30)) {
      for (size_t k = mine.size() - 1; k > 0; k--) {
        std::swap(mine[k], mine[static_cast<size_t>(g.Pick(static_cast<int>(k) + 1))]);
      }
    }
    std::string text;
    if (g.Chance(30)) {
      text += g.BodyLine() + "\n";
    }
    for (int h : mine) {
      if (g.Chance(85)) {
        text += StrFormat("#include \"h%d.h\"\n", h);
      }
      if (g.Chance(10)) {
        text += g.BodyLine() + "\n";
      }
    }
    // Some units end with an include.
    for (int n = g.Chance(15) ? 0 : 1 + g.Pick(4); n > 0; n--) {
      text += g.BodyLine() + "\n";
    }
    std::string unit = StrFormat("/p/u%d.c", i);
    put(unit, text);
    w.units.push_back(unit);
  }
}

std::string Describe(const CToken& t) {
  return StrFormat("%d %.*s %.*s:%d:%d", static_cast<int>(t.kind), static_cast<int>(t.text.size()),
                   t.text.data(), static_cast<int>(t.file.size()), t.file.data(), t.line, t.col);
}

// The declaration of the symbol at `id` on `file`:`line` and all its
// occurrences, as rcc and rcc -u would print them (with columns).
std::string Answer(const CBrowser& b, const std::string& id, const std::string& file, int line) {
  const CSymbol* s = b.ResolveAt(id, file, line);
  if (s == nullptr) {
    return "unresolved\n";
  }
  std::string out = StrFormat("%.*s:%d:%d %s kind %d\n", static_cast<int>(s->file.size()),
                              s->file.data(), s->line, s->col,
                              s->name.c_str(), static_cast<int>(s->kind));
  for (const CUse& u : b.UsesOf(s->id)) {
    out += StrFormat("%.*s:%d:%d%s\n", static_cast<int>(u.file.size()), u.file.data(), u.line,
                     u.col, u.is_decl ? " decl" : "");
  }
  return out;
}

constexpr uint32_t kSeeds = 400;

TEST(CcProperty, SplicedTokensEqualLexedCppText) {
  int spliced = 0;
  int failed = 0;
  for (uint32_t seed = 1; seed <= kSeeds; seed++) {
    World w;
    MakeWorld(seed, &w);
    CSources table(w.vfs);
    for (const std::string& unit : w.units) {
      SCOPED_TRACE(StrFormat("seed %u unit %s", seed, unit.c_str()));
      // The table renders the unit first, so Unit must lex files that
      // so far were only scanned for includes.
      std::string rendered;
      Status rs = table.Text(unit, &rendered);
      CUnit runs;
      Status s = table.Unit(unit, &runs);
      std::vector<CToken> toks;
      for (const CUnit::Run& run : runs.runs) {
        ASSERT_EQ(run.at, toks.size());
        ASSERT_NE(run.begin, run.end);
        toks.insert(toks.end(), run.begin, run.end);
      }
      auto text = Preprocess(w.vfs, unit);
      ASSERT_EQ(s.ok(), text.ok()) << s.message() << " vs " << text.message();
      ASSERT_EQ(rs.ok(), text.ok()) << rs.message() << " vs " << text.message();
      if (!s.ok()) {
        EXPECT_EQ(s.message(), text.message());
        EXPECT_EQ(rs.message(), text.message());
        failed++;
        continue;
      }
      EXPECT_EQ(rendered, text.value());
      auto lexed = CLex(text.value(), unit);
      ASSERT_TRUE(lexed.ok()) << lexed.message();
      ASSERT_EQ(toks.size(), lexed.value().size());
      for (size_t i = 0; i < toks.size(); i++) {
        ASSERT_EQ(Describe(toks[i]), Describe(lexed.value()[i])) << "token " << i;
      }
      spliced++;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(spliced, static_cast<int>(kSeeds));
  EXPECT_GT(failed, 10);
}

std::string Describe(const CInclude& i) {
  return StrFormat("%.*s %d %.*s:%d [%zu,%zu)", static_cast<int>(i.name.size()), i.name.data(),
                   i.system, static_cast<int>(i.file.size()), i.file.data(), i.line, i.begin,
                   i.end);
}

TEST(CcProperty, IncludeScanMatchesLexer) {
  int lexed = 0;
  int failed = 0;
  for (uint32_t seed = 1; seed <= kSeeds; seed++) {
    World w;
    MakeWorld(seed, &w);
    for (const std::string& file : w.files) {
      SCOPED_TRACE(StrFormat("seed %u file %s", seed, file.c_str()));
      std::string text = w.vfs.ReadFile(file).value();
      std::vector<CInclude> by_lexer;
      std::vector<CInclude> by_scan;
      auto toks = CLex(text, file, nullptr, &by_lexer);
      Status s = CLexIncludes(text, file, &by_scan);
      ASSERT_EQ(toks.ok(), s.ok()) << toks.message() << " vs " << s.message();
      if (!s.ok()) {
        EXPECT_EQ(toks.message(), s.message());
        failed++;
        continue;
      }
      ASSERT_EQ(by_lexer.size(), by_scan.size());
      for (size_t i = 0; i < by_lexer.size(); i++) {
        EXPECT_EQ(Describe(by_lexer[i]), Describe(by_scan[i])) << "include " << i;
      }
      lexed++;
    }
  }
  EXPECT_GT(lexed, static_cast<int>(kSeeds));
  EXPECT_GT(failed, 10);
}

// Seeds up to kSeeds read MakeWorld's worlds, the rest MakeSharedWorld's.
TEST(CcProperty, AddFileAnswersAsPreprocessedText) {
  obs::Counter* records = obs::Registry::Global().GetCounter("cc.header_records");
  obs::Counter* replays = obs::Registry::Global().GetCounter("cc.header_replays");
  uint64_t records_before = records->value();
  uint64_t replays_before = replays->value();
  size_t queries = 0;
  for (uint32_t seed = 1; seed <= 2 * kSeeds; seed++) {
    World w;
    if (seed <= kSeeds) {
      MakeWorld(seed, &w);
    } else {
      MakeSharedWorld(seed, &w);
    }
    CBrowser by_file;
    CBrowser by_text;
    for (const std::string& unit : w.units) {
      Status s = by_file.AddFile(w.vfs, unit);
      auto text = Preprocess(w.vfs, unit);
      ASSERT_EQ(s.ok(), text.ok()) << "seed " << seed << " " << unit;
      if (text.ok()) {
        ASSERT_TRUE(by_text.AddTranslationUnit(text.value(), unit).ok());
      }
    }
    for (const std::string& file : w.files) {
      std::string raw = w.vfs.ReadFile(file).value();
      auto toks = CLex(raw, file);
      if (!toks.ok()) {
        continue;  // a literal left open: no unit that reads it was added
      }
      std::set<std::pair<int, std::string>> occurrences;
      for (const CToken& t : toks.value()) {
        if (t.kind == CTok::kIdent) {
          occurrences.emplace(t.line, std::string(t.text));
        }
      }
      for (const auto& [line, id] : occurrences) {
        ASSERT_EQ(Answer(by_file, id, file, line), Answer(by_text, id, file, line))
            << "seed " << seed << " " << file << ":" << line << " " << id;
        queries++;
      }
    }
  }
  EXPECT_GT(queries, 20 * kSeeds);
  // AddFile parses most headers once and replays them after.
  EXPECT_GT(records->value() - records_before, kSeeds);
  EXPECT_GT(replays->value() - replays_before, kSeeds);
}

}  // namespace
}  // namespace help
