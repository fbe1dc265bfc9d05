#!/usr/bin/env python3
"""Regression tests for the repo's static-analysis toolchain
(tools/cxxlex.py, tools/haplint, tools/hapcheck).

Analyzers that gate CI must have their own tests: a linter rule that silently
stops matching is worse than no rule, because the gate keeps reporting green.
Each rule has at least one known-bad fixture (must be flagged) and one
known-good fixture (must stay quiet); the v1 bug fixes — the raw-string
blind spot and single-rule-only suppression matching — are each pinned by a
test that fails against the old implementation.

Stdlib only (unittest, tempfile, subprocess); runs as a ctest entry and in
the CI static-analysis job:  python3 tools/test_analyzers.py
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

import cxxlex  # noqa: E402


def load_script(name):
    """Import an extensionless analyzer script as a module."""
    loader = importlib.machinery.SourceFileLoader(name, str(TOOLS / name))
    spec = importlib.util.spec_from_loader(name, loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


haplint = load_script("haplint")
hapcheck = load_script("hapcheck")


# ---------------------------------------------------------------------------
# cxxlex


class LexerTest(unittest.TestCase):
    def kinds(self, text):
        return [(t.kind, t.text) for t in cxxlex.lex(text)]

    def test_raw_string_is_one_token(self):
        toks = cxxlex.lex('auto s = R"(quote " slash \\ paren ))";')
        strings = [t for t in toks if t.kind == "string"]
        self.assertEqual(len(strings), 1)
        self.assertTrue(strings[0].text.startswith('R"('))
        self.assertTrue(strings[0].text.endswith(')"'))

    def test_raw_string_with_delimiter(self):
        toks = cxxlex.lex('auto s = R"x(inner )" not the end)x"; int y;')
        strings = [t for t in toks if t.kind == "string"]
        self.assertEqual(len(strings), 1)
        self.assertIn('not the end', strings[0].text)
        idents = [t.text for t in cxxlex.code_tokens(toks)]
        self.assertIn("y", idents)

    def test_raw_string_with_encoding_prefix(self):
        toks = cxxlex.lex('auto s = u8R"(x)"; auto t = LR"(y)";')
        self.assertEqual(len([t for t in toks if t.kind == "string"]), 2)

    def test_code_view_blanks_raw_string_but_keeps_lines(self):
        text = 'int a;\nauto s = R"(rand();\nsrand(1);)";\nint b;\n'
        view = cxxlex.code_view(text)
        self.assertEqual(view.count("\n"), text.count("\n"))
        self.assertNotIn("rand", view)
        self.assertNotIn("srand", view)
        self.assertIn("int b;", view)

    def test_code_view_blanks_comments(self):
        view = cxxlex.code_view("int a; // rand()\n/* srand(7) */ int b;\n")
        self.assertNotIn("rand", view)
        self.assertIn("int a;", view)
        self.assertIn("int b;", view)

    def test_unterminated_literal_does_not_raise(self):
        toks = cxxlex.lex('auto s = R"(never closed; int x = "also open')
        self.assertTrue(toks)  # lexed to EOF without exceptions

    def test_pp_logical_line_with_continuation(self):
        toks = cxxlex.lex("#define M(a) \\\n    ((a) + 1)\nint z;\n")
        pps = [t for t in toks if t.kind == "pp"]
        self.assertEqual(len(pps), 1)
        self.assertIn("+ 1)", pps[0].text)
        self.assertIn("z", [t.text for t in cxxlex.code_tokens(toks)])

    def test_match_paren_and_brace(self):
        toks = cxxlex.code_tokens(cxxlex.lex("f(a, g(b), c) { { } }"))
        close = cxxlex.match_paren(toks, 1)
        self.assertEqual(toks[close].text, ")")
        self.assertEqual(close, 10)  # f ( a , g ( b ) , c )
        open_b = close + 1
        self.assertEqual(toks[cxxlex.match_brace(toks, open_b)].text, "}")
        self.assertEqual(cxxlex.match_brace(toks, open_b), len(toks) - 1)

    def test_punctuator_longest_match(self):
        toks = cxxlex.lex("a <<= b; c <=> d;")
        texts = [t.text for t in toks if t.kind == "punct"]
        self.assertIn("<<=", texts)
        self.assertIn("<=>", texts)


# ---------------------------------------------------------------------------
# haplint fixtures


class LintFixture:
    """A throwaway repo tree; write(relpath, text) then findings(relpath)."""

    def __init__(self, tmp):
        self.root = Path(tmp)

    def write(self, rel, text):
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        return p

    def findings(self, rel, text=None):
        if text is not None:
            self.write(rel, text)
        found = haplint.check_file(self.root / rel, self.root)
        return [(rule, line) for (_, line, rule, _) in found]

    def rules(self, rel, text=None):
        return {r for r, _ in self.findings(rel, text)}


class HaplintRuleTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.fix = LintFixture(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    # -- pinned v1 regressions --------------------------------------------

    def test_raw_string_blind_spot_fixed(self):
        # v1's strip_comments_and_strings did not recognize R"(...)": the
        # lone quote inside desynchronized its state machine, so everything
        # after the literal was treated as string interior and the rand()
        # below was never scanned. v2 must flag it.
        rules = self.fix.rules("src/core/q.cpp", '''#include "core/q.hpp"
const char* kSql = R"(SELECT "x" FROM t)";
int noise() { return rand(); }
''')
        self.fix.write("src/core/q.hpp", "#pragma once\n")
        rules = self.fix.rules("src/core/q.cpp")
        self.assertIn("rng-seeding", rules)

    def test_code_inside_raw_string_not_flagged(self):
        self.fix.write("src/core/r.hpp", "#pragma once\n")
        rules = self.fix.rules("src/core/r.cpp", '''#include "core/r.hpp"
const char* kDoc = R"(call srand(42) and std::thread t; here)";
''')
        self.assertEqual(rules, set())

    def test_multi_rule_allow_suppresses_both(self):
        # v1 accepted exactly one id per allow(); the comma list left both
        # findings live. v2 must honor allow(a,b).
        self.fix.write("src/core/m.hpp", "#pragma once\n")
        body = '''#include "core/m.hpp"
double f(double a) {{
    if (a == 0.5 && std::getenv("HAP_X") != nullptr) return 1.0;{allow}
    return 0.0;
}}
'''
        both = self.fix.findings("src/core/m.cpp", body.format(allow=""))
        self.assertEqual({r for r, _ in both},
                         {"float-equality", "env-after-spawn"})

        suppressed = self.fix.findings(
            "src/core/m.cpp",
            body.format(allow="  // haplint: allow(float-equality,env-after-spawn) why"))
        self.assertEqual(suppressed, [])

        partial = self.fix.findings(
            "src/core/m.cpp",
            body.format(allow="  // haplint: allow(float-equality) why"))
        self.assertEqual({r for r, _ in partial}, {"env-after-spawn"})

    def test_own_header_first_cc_and_dot_h(self):
        # v1 only knew .cpp/.hpp; .cc files with a .h own header were never
        # checked. v2 must flag a .cc whose first include is not its header.
        self.fix.write("src/util/thing.h", "#pragma once\n")
        rules = self.fix.rules("src/util/thing.cc",
                               '#include <vector>\n#include "util/thing.h"\n')
        self.assertIn("own-header-first", rules)
        rules = self.fix.rules("src/util/thing.cc",
                               '#include "util/thing.h"\n#include <vector>\n')
        self.assertNotIn("own-header-first", rules)

    # -- per-rule known-bad / known-good ----------------------------------

    def test_rng_seeding(self):
        self.assertIn("rng-seeding",
                      self.fix.rules("src/a.cpp", "int f() { return rand(); }\n"))
        self.assertIn("rng-seeding",
                      self.fix.rules("src/b.cpp",
                                     "#include <random>\nstd::random_device rd;\n"))
        # Member call obj.time(...) is not ::time().
        self.assertNotIn("rng-seeding",
                         self.fix.rules("src/c.cpp",
                                        "double f(Clock c) { return c.time(1); }\n"))

    def test_unordered_iter(self):
        bad = "#include <unordered_map>\nstd::unordered_map<int,int> m;\n"
        self.assertIn("unordered-iter",
                      self.fix.rules("src/experiment/x.cpp", bad))
        self.assertNotIn("unordered-iter", self.fix.rules("src/core/x.cpp", bad))

    def test_naked_thread(self):
        self.assertIn("naked-thread",
                      self.fix.rules("src/solver/x.cpp",
                                     "#include <thread>\nstd::thread t(f);\n"))
        self.assertNotIn("naked-thread",
                         self.fix.rules("src/parallel/parallel_for.cpp",
                                        "std::thread t(f);\n"))
        # The sweep team is a thread home; the solver that leases it is not.
        self.assertNotIn("naked-thread",
                         self.fix.rules("src/parallel/team.cpp",
                                        "std::thread t(f);\n"))
        self.assertIn("naked-thread",
                      self.fix.rules("src/core/solution0.cpp",
                                     "#include <thread>\nstd::thread t(f);\n"))
        # The replication runner fans out through parallel_for, not threads.
        self.assertIn("naked-thread",
                      self.fix.rules("src/experiment/runner.cpp",
                                     "#include <thread>\nstd::thread t(f);\n"))
        self.assertNotIn(
            "naked-thread",
            self.fix.rules("src/solver/y.cpp",
                           "unsigned n = std::thread::hardware_concurrency();\n"))

    def test_printf_in_library(self):
        self.assertIn("printf-in-library",
                      self.fix.rules("src/x.cpp", 'void f() { printf("x"); }\n'))
        self.assertNotIn("printf-in-library",
                         self.fix.rules("src/y.cpp",
                                        "int f(char* b) { return snprintf(b, 4, \"x\"); }\n"))
        self.assertNotIn("printf-in-library",
                         self.fix.rules("bench/z.cpp", 'void f() { printf("x"); }\n'))

    def test_float_equality(self):
        self.assertIn("float-equality",
                      self.fix.rules("src/x.cpp",
                                     "bool f(double a) { return a == 1.0; }\n"))
        # Declared-double symbol against a plain int literal still counts.
        self.assertIn("float-equality",
                      self.fix.rules("src/y.cpp",
                                     "bool f(double a) { return a != 0; }\n"))
        # Tests may pin exact values.
        self.assertNotIn("float-equality",
                         self.fix.rules("tests/x.cpp",
                                        "bool f(double a) { return a == 1.0; }\n"))
        # nullptr comparisons are pointer tests.
        self.assertNotIn("float-equality",
                         self.fix.rules("src/z.cpp",
                                        "double v;\nbool f(int* p) { return p == nullptr; }\n"))
        # A name that is double in one scope and integral in another is
        # ambiguous at file level and must not be trusted (regression: the
        # `s == max_sweeps` false positive).
        self.assertNotIn("float-equality",
                         self.fix.rules("src/w.cpp", """
double s = 0.0;
bool g(std::size_t s, std::size_t max_sweeps) { return s == max_sweeps; }
"""))

    def test_nonassoc_reduction(self):
        bad = """
void run(std::size_t n, const std::vector<double>& v) {
    double sum = 0.0;
    parallel_for(0, n, [&](std::size_t i) { sum += v[i]; });
}
"""
        self.assertIn("nonassoc-reduction", self.fix.rules("src/x.cpp", bad))
        good_slots = """
void run(std::size_t n, std::vector<double>& out, const std::vector<double>& v) {
    parallel_for(0, n, [&](std::size_t i) { out[i] += v[i]; });
}
"""
        self.assertNotIn("nonassoc-reduction",
                         self.fix.rules("src/y.cpp", good_slots))
        good_local = """
void run(std::size_t n, std::vector<double>& out) {
    parallel_for(0, n, [&](std::size_t i) {
        double acc = 0.0;
        acc += 1.0;
        out[i] = acc;
    });
}
"""
        self.assertNotIn("nonassoc-reduction",
                         self.fix.rules("src/z.cpp", good_local))

    def test_env_after_spawn(self):
        in_lambda = """
void run(std::size_t n) {
    parallel_for(0, n, [&](std::size_t i) {
        const char* v = std::getenv("HAP_X");
    });
}
"""
        self.assertIn("env-after-spawn", self.fix.rules("src/x.cpp", in_lambda))
        # ... even outside src/: a pool body is never phase-0.
        self.assertIn("env-after-spawn",
                      self.fix.rules("bench/x.cpp", in_lambda))
        self.assertIn("env-after-spawn",
                      self.fix.rules("src/y.cpp",
                                     'const char* v = std::getenv("HAP_X");\n'))
        # Front-end (non-src) top-level reads are phase-0 configuration.
        self.assertNotIn("env-after-spawn",
                         self.fix.rules("tools/y.cpp",
                                        'const char* v = std::getenv("HAP_X");\n'))

    def test_missing_nodiscard(self):
        self.assertIn("missing-nodiscard",
                      self.fix.rules("src/x.hpp",
                                     "struct SolveResult { int iters; };\n"))
        self.assertNotIn("missing-nodiscard",
                         self.fix.rules("src/y.hpp",
                                        "struct [[nodiscard]] SolveResult { int iters; };\n"))
        # Forward declarations and non-Result names stay quiet.
        self.assertNotIn("missing-nodiscard",
                         self.fix.rules("src/z.hpp",
                                        "struct SolveResult;\nstruct Options { int a; };\n"))
        self.assertNotIn("missing-nodiscard",
                         self.fix.rules("tests/w.hpp",
                                        "struct SolveResult { int iters; };\n"))


# ---------------------------------------------------------------------------
# hapcheck


HEADER_UNCHECKED = """#pragma once
namespace hap::core {
double solve_rate(double rate);
}
"""

CPP_UNCHECKED = """#include "core/toy.hpp"
namespace hap::core {
double solve_rate(double rate) { return rate * 2.0; }
}
"""

CPP_CHECKED = """#include "core/toy.hpp"
#include "core/contracts.hpp"
namespace hap::core {
double solve_rate(double rate) {
    HAP_CHECK_FINITE(rate);
    return rate * 2.0;
}
}
"""


class HapcheckFixture:
    def __init__(self, tmp):
        self.root = Path(tmp)

    def write(self, rel, text):
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        return p

    def write_compile_db(self, cpp_rels):
        entries = [{"directory": str(self.root), "file": str(self.root / r),
                    "command": f"c++ -c {r}"} for r in cpp_rels]
        self.write("build/compile_commands.json", json.dumps(entries))

    def run(self, *extra):
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "hapcheck"), "--root", str(self.root),
             *extra],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def gather(self):
        compiled = {str((self.root / "build" / "compile_commands.json"))}
        db = hapcheck.load_compile_db(self.root / "build" / "compile_commands.json")
        return hapcheck.gather_findings(self.root, db)


class HapcheckModelTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.fix = HapcheckFixture(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def ids(self):
        findings, _ = self.fix.gather()
        return {fn.ident() for fn in findings}

    def test_uncovered_entry_point_is_found(self):
        self.fix.write("src/core/toy.hpp", HEADER_UNCHECKED)
        self.fix.write("src/core/toy.cpp", CPP_UNCHECKED)
        self.fix.write_compile_db(["src/core/toy.cpp"])
        self.assertEqual(self.ids(),
                         {"src/core/toy.hpp:solve_rate/1"})

    def test_contract_in_sibling_cpp_covers(self):
        self.fix.write("src/core/toy.hpp", HEADER_UNCHECKED)
        self.fix.write("src/core/toy.cpp", CPP_CHECKED)
        self.fix.write_compile_db(["src/core/toy.cpp"])
        self.assertEqual(self.ids(), set())

    def test_contract_must_name_a_floating_param(self):
        self.fix.write("src/core/toy.hpp", HEADER_UNCHECKED)
        self.fix.write("src/core/toy.cpp", """#include "core/toy.hpp"
namespace hap::core {
double solve_rate(double rate) {
    HAP_PRECOND(2 > 1);
    return rate * 2.0;
}
}
""")
        self.fix.write_compile_db(["src/core/toy.cpp"])
        self.assertEqual(self.ids(), {"src/core/toy.hpp:solve_rate/1"})

    def test_macro_inside_lambda_is_unreachable(self):
        self.fix.write("src/core/toy.hpp", HEADER_UNCHECKED)
        self.fix.write("src/core/toy.cpp", """#include "core/toy.hpp"
namespace hap::core {
double solve_rate(double rate) {
    auto check = [&] { HAP_CHECK_FINITE(rate); };
    return rate * 2.0;
}
}
""")
        self.fix.write_compile_db(["src/core/toy.cpp"])
        self.assertEqual(self.ids(), {"src/core/toy.hpp:solve_rate/1"})

    def test_inline_header_body_covers(self):
        self.fix.write("src/core/inl.hpp", """#pragma once
namespace hap::core {
inline double twice(double x) {
    HAP_CHECK_FINITE(x);
    return 2.0 * x;
}
}
""")
        self.fix.write_compile_db([])
        self.assertEqual(self.ids(), set())

    def test_noexcept_and_private_and_detail_are_exempt(self):
        self.fix.write("src/core/exempt.hpp", """#pragma once
namespace hap::core {
namespace detail {
inline double helper(double x) { return x; }
}
class Solver {
public:
    double ok(double x) const noexcept { return x; }
private:
    double hidden(double x) { return x; }
};
}
""")
        self.fix.write_compile_db([])
        self.assertEqual(self.ids(), set())

    def test_public_struct_member_is_checked(self):
        self.fix.write("src/queueing/st.hpp", """#pragma once
namespace hap::queueing {
struct Box {
    double scale(double f) { return f * 2.0; }
};
}
""")
        self.fix.write_compile_db([])
        self.assertEqual(self.ids(), {"src/queueing/st.hpp:Box::scale/1"})

    def test_integral_and_pointer_params_not_checked(self):
        self.fix.write("src/core/ints.hpp", """#pragma once
namespace hap::core {
int count(int n, const double* data);
}
""")
        self.fix.write_compile_db([])
        self.assertEqual(self.ids(), set())


class HapcheckBaselineTest(unittest.TestCase):
    """End-to-end shrink-only policy through the CLI."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.fix = HapcheckFixture(self._tmp.name)
        self.fix.write("src/core/toy.hpp", HEADER_UNCHECKED)
        self.fix.write("src/core/toy.cpp", CPP_UNCHECKED)
        self.fix.write_compile_db(["src/core/toy.cpp"])

    def tearDown(self):
        self._tmp.cleanup()

    def test_missing_compile_db_is_infra_error(self):
        os.remove(self.fix.root / "build" / "compile_commands.json")
        rc, _, err = self.fix.run()
        self.assertEqual(rc, 2)
        self.assertIn("compile_commands.json", err)

    def test_new_finding_fails_and_update_baselines_it(self):
        rc, out, _ = self.fix.run()
        self.assertEqual(rc, 1)
        self.assertIn("contract-coverage", out)

        rc, _, _ = self.fix.run("--update-baseline")
        self.assertEqual(rc, 0)
        rc, out, _ = self.fix.run()
        self.assertEqual(rc, 0, out)

    def test_baseline_must_shrink_when_debt_is_paid(self):
        self.fix.run("--update-baseline")
        # Pay the debt: the entry point gains its contract...
        self.fix.write("src/core/toy.cpp", CPP_CHECKED)
        rc, out, _ = self.fix.run()
        # ...and the stale baseline entry now FAILS the run until removed.
        self.assertEqual(rc, 1)
        self.assertIn("stale-baseline", out)

        baseline = self.fix.root / "tools" / "hapcheck_baseline.json"
        data = json.loads(baseline.read_text())
        data["entries"] = []
        baseline.write_text(json.dumps(data))
        rc, out, _ = self.fix.run()
        self.assertEqual(rc, 0, out)

    def test_baseline_entry_without_why_is_rejected(self):
        self.fix.run("--update-baseline")
        baseline = self.fix.root / "tools" / "hapcheck_baseline.json"
        data = json.loads(baseline.read_text())
        data["entries"][0]["why"] = ""
        baseline.write_text(json.dumps(data))
        rc, _, err = self.fix.run()
        self.assertEqual(rc, 2)
        self.assertIn("justification", err)

    def test_uncompiled_sibling_cpp_is_infra_error(self):
        # A .cpp that is not a compiled TU cannot satisfy coverage: the
        # check is grounded in the compiler's view of the tree.
        self.fix.write_compile_db([])
        rc, _, err = self.fix.run()
        self.assertEqual(rc, 2)
        self.assertIn("translation unit", err)


class RepoGateTest(unittest.TestCase):
    """The real tree must satisfy its own gates (same invocation as CI)."""

    ROOT = TOOLS.parent

    def test_haplint_clean(self):
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "haplint"), "--root", str(self.ROOT)],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_hapcheck_clean_and_baseline_small(self):
        # ctest names the build tree's compile database; a standalone run
        # has no build tree to trust and skips.
        compile_commands = os.environ.get("HAP_COMPILE_COMMANDS")
        if not compile_commands:
            self.skipTest("no build tree named (HAP_COMPILE_COMMANDS unset)")
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "hapcheck"), "--root", str(self.ROOT),
             "--compile-commands", compile_commands],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        data = json.loads((self.ROOT / "tools" / "hapcheck_baseline.json").read_text())
        self.assertLessEqual(len(data["entries"]), 10)
        for e in data["entries"]:
            self.assertTrue(e["why"].strip(), f"entry {e['id']} lacks a why")


if __name__ == "__main__":
    unittest.main(verbosity=2)
