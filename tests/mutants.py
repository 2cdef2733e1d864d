"""Mutation score of the tests: seeded AST mutants of one module of fmf_ttdl.

    python tests/mutants.py design --functions _highs_lp _run _solve_lp
    python tests/mutants.py evaluate --sample 40 --seed 1

Each mutant changes one site of src/fmf_ttdl/<module>.py:

* an arithmetic operator: + and -, * and /;
* a comparison: < and <=, > and >=, == and !=, is and is not, in and not in;
* a boolean operator: and and or;
* a numeric constant: an int n becomes n + 1, a float x becomes 2x (1.0 for 0.0).

Sites inside f-strings and annotations are left alone.  The sites are listed
in source order; --functions keeps those inside the named functions (or in
the value of a module-level assignment to one of the names), and
--sample N keeps N of them, drawn with --seed, so a run is the same for the
same arguments.  src/, tests/, demo/ and pyproject.toml are copied once; each
mutant is written into the copy, and pytest runs the module's test files
there with -x and a timeout.  A mutant is killed when they fail or time out,
and survives when they pass.  Each mutant is printed with its verdict, line
and change; the last line is the score.  Mutants listed in EQUIVALENT cannot
change what the package does; they are printed as such and left out of the
score.  A run over every site of the module (no --functions, no --sample)
first prints each EQUIVALENT key of the module that matches no site.

This is not a test file: pytest does not collect it, and a run takes minutes.
"""

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# test_cli.py reads perfbench/reference/cli/design_report.txt
COPIED = ("src", "tests", "demo", "perfbench", "pyproject.toml")

TEST_FILES = {
    "cli": ("test_cli.py", "test_cli_diagnostics.py"),
    "design": ("test_design.py", "test_design_properties.py", "test_acceptance.py",
               "test_cli.py"),
    "evaluate": ("test_evaluate.py", "test_acceptance.py", "test_cli.py"),
    # every module reads its files and checks its ranges through fileio
    "fileio": ("test_fileio.py", "test_parser_fuzz.py", "test_materials.py", "test_modes.py",
               "test_modes_properties.py", "test_design.py", "test_design_properties.py",
               "test_evaluate.py", "test_cli.py", "test_cli_diagnostics.py", "test_acceptance.py"),
    "materials": ("test_materials.py", "test_modes.py", "test_acceptance.py"),
    "modes": ("test_modes.py", "test_modes_properties.py", "test_acceptance.py"),
}

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}

# (module, the mutated line as printed): why no test can tell the mutant apart
EQUIVALENT = {
    ("design", "full = np.flatnonzero(np.linalg.matrix_rank(matrix) == matrix.shape[-(2)])"):
        "the stacked systems are square",
    ("design", "x[t] = np.linalg.solve(matrix[t:t + 1], rhs[t:t + (2), :, None])[0, :, 0]"):
        "a second right-hand side broadcasts against the one matrix; only the first "
        "solution is kept",
    ("design", "lp.a_matrix_.start_ = np.searchsorted(col, np.arange(cols + (2)))"):
        "HiGHS reads num_col + 1 column starts; the extra one would repeat the last",
    ("evaluate", "for tau, d in zip(tau_eq, d_eq or [(1.0)] * len(tau_eq))]"):
        "without D_eq every wavelength is lambda0, so each stand-in D multiplies 0.0",
    ("modes", "top = max(int(l.max()), (2))"):
        "the recurrence runs one order further, to a term no point takes",
    ("modes", "terms = np.empty((top + (3), *x.shape))  # Y_{k-1} at index k"):
        "the recurrence runs one order further, to a term no point takes",
    ("modes", "if not np.isfinite(terms[-(2)]).all():"):
        "a first non-finite term in the top row needs no carrying, and x == 0 makes Y_1 "
        "and every later term non-finite, so the row below the top is also finite exactly "
        "when no point ran past cephes's stop",
    ("modes", "np.copyto(terms[k], terms[k - 1], where=~np.isfinite(terms[k - (2)]))"):
        "for x > 0 the first non-finite term is an infinity (finite terms give no NaN), "
        "the term after it is the same infinity, and that is what gets carried; for x < 0 "
        "or NaN every term from Y_2 on has Y_1's NaN bits",
    ("modes", "return ((((u2 >= 0.0)) & ~degenerate, 1.0, j, y, 0.5 * math.pi),"):
        "a row with u2 = 0 is degenerate, and the mask leaves it out",
    ("modes", "(((u2 <= 0.0)) & ~degenerate, -1.0, i, k, -1.0))"):
        "a row with u2 = 0 is degenerate, and the mask leaves it out",
    ("modes", "return np.where((scale >= 0.0), (a - b) / np.where(scale > 0.0, scale, 1.0), 0.0)"):
        "scale is 0 only where a and b are both zero, and then a - b is a zero too: only "
        "its sign can differ, which no comparison reads",
    ("modes", "return np.where(scale > 0.0, (a - b) / np.where((scale >= 0.0), scale, 1.0), 0.0)"):
        "where scale is 0 the outer where discards the quotient",
    ("modes", "return np.where(scale > 0.0, (a - b) / np.where(scale > 0.0, scale, (2.0)), 0.0)"):
        "where scale is 0 the outer where discards the quotient",
    ("modes", "tables = _find_tables(profile, [((lam, lam - dlambda_um, lam + dlambda_um), (1))"):
        "the anchor only seeds the search at the other wavelengths, and any seeds give the "
        "same brackets and cells",
    ("modes", "min(_MAX_AZIMUTHAL, _cutoff_order(geometry, grid[(1)])) + 1 if grid.size else 0)]"):
        "one cell up lowers the bound's reach by about reach / (2 (scan_points - 1)), so the "
        "bound drops at most its own order, which has no root at or above grid[0] either",
    ("modes", "for table in _find_tables(profile, [(wavelengths, len(wavelengths) // (3))], "
              "scan_points):"):
        "the anchor only seeds the search at the other wavelengths, and any seeds give the "
        "same brackets and cells",
    ("modes", "anchors += [(len(wavelengths) - anchor)] * len(own)"):
        "the only group with a nonzero anchor is a sweep's, and there it wraps to another "
        "wavelength of the sweep, which is then searched twice: any seeds give the same "
        "brackets and cells",
    ("modes", "[[(x - d) for x, _ in near.get((anchors[k], l), ())"):
        "the seeds change only the work done: any seeds give the same brackets and cells",
    ("modes", "for d in range(-_SEED_REACH, _SEED_REACH + (3))]"):
        "the reach only widens the seeds, and any seeds give the same brackets and cells",
    ("modes", "_SEED_REACH = (2)            # cells around another wavelength's root cell that "
              "a search counts first"):
        "the reach only widens the seeds, and any seeds give the same brackets and cells",
    ("modes", "side = np.where((fa >= 0.0), y, -y)  # > 0 where y has the sign of fa, 0 at a "
              "root"):
        "fa is never 0: a bracket starts at a strict sign change, and a y of 0 closes it "
        "at once",
    ("modes", "np.where((side <= 0.0), fa, y), np.where(side > 0.0, fb, y),"):
        "side is 0 only where y is, and then a = b = x closes the bracket before fa is "
        "read again",
    ("modes", "np.where(side < 0.0, fa, y), np.where((side >= 0.0), fb, y),"):
        "side is 0 only where y is, and then a = b = x closes the bracket before fb is "
        "read again",
    ("materials", "lo, hi = 0.0, (2.0)  # n(lo) < target <= n(hi)"):
        "the first midpoint is 1.0, where the index is germania's and reaches any target "
        "in range, so hi becomes 1.0 and the bisection of [0, 1] follows",
}


class _Sites(ast.NodeVisitor):
    """(enclosing function names, node, mutated node) for every site, in source order."""

    def __init__(self):
        self.scope, self.sites = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        if self.scope or not names:
            return self.generic_visit(node)
        self.scope.append(names[0])  # a module-level table is scored by its name
        self.visit(node.value)
        self.scope.pop()

    def visit_arg(self, node):
        pass  # only the annotation lies below

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_JoinedStr(self, node):
        pass  # positions inside f-strings are not reliable before Python 3.12

    def _add(self, node, mutated):
        self.sites.append((tuple(self.scope), node, mutated))

    def visit_BinOp(self, node):
        if type(node.op) in SWAPS:
            mutated = copy.deepcopy(node)
            mutated.op = SWAPS[type(node.op)]()
            self._add(node, mutated)
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        mutated = copy.deepcopy(node)
        mutated.op = SWAPS[type(node.op)]()
        self._add(node, mutated)
        self.generic_visit(node)

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                mutated = copy.deepcopy(node)
                mutated.ops[i] = SWAPS[type(op)]()
                self._add(node, mutated)
        self.generic_visit(node)

    def visit_Constant(self, node):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        new = value + 1 if isinstance(value, int) else (2.0 * value if value else 1.0)
        self._add(node, ast.Constant(new))


def _replace(source, node, text):
    """source with node's span replaced by (text); offsets are UTF-8 byte columns."""
    data = source.encode()
    lines = data.splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[:node.end_lineno - 1])) + node.end_col_offset
    return (data[:start] + f"({text})".encode() + data[end:]).decode()


def mutants(source, functions=None):
    """(function, line number, original, mutated, mutated line, mutated module) per site."""
    visitor = _Sites()
    visitor.visit(ast.parse(source))
    for scope, node, mutated in visitor.sites:
        if functions and not set(scope) & set(functions):
            continue
        text = ast.unparse(mutated)
        changed = _replace(source, node, text)
        compile(changed, "<mutant>", "exec")  # a swap that breaks the syntax is a bug here
        original = " ".join(ast.get_source_segment(source, node).split())
        line = changed.splitlines()[node.lineno - 1].strip()
        yield (".".join(scope) or "<module>", node.lineno, original, text, line, changed)


def _pytest(work, tests, timeout):
    """'killed' or 'survived' for the copy in work as it stands."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{name}" for name in tests)]
    try:
        result = subprocess.run(command, cwd=work, env=env, capture_output=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed"
    return "survived" if result.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", choices=sorted(TEST_FILES))
    parser.add_argument("--functions", nargs="+", help="mutate only inside these functions")
    parser.add_argument("--sample", type=int, help="run this many mutants, drawn with --seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    args = parser.parse_args(argv)

    target = ROOT / "src" / "fmf_ttdl" / f"{args.module}.py"
    source = target.read_text()
    chosen = list(mutants(source, args.functions))
    if not args.functions and args.sample is None:
        lines = {line for *_, line, _ in chosen}
        for module, line in EQUIVALENT:
            if module == args.module and line not in lines:
                print(f"stale EQUIVALENT key, matches no site: {line}", flush=True)
    if args.sample is not None and args.sample < len(chosen):
        picked = sorted(random.Random(args.seed).sample(range(len(chosen)), args.sample))
        chosen = [chosen[i] for i in picked]
    if not chosen:
        parser.error("no mutation sites")
    tests = TEST_FILES[args.module]
    with tempfile.TemporaryDirectory(prefix="fmf-ttdl-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, work / name)
        copied = work / "src" / "fmf_ttdl" / target.name
        if _pytest(work, tests, args.timeout) != "survived":
            sys.exit(f"the tests fail on the unmutated {target.name}")
        killed = scored = 0
        for function, number, original, text, line, changed in chosen:
            key = (args.module, line)
            if key in EQUIVALENT:
                verdict = "equivalent"
            else:
                copied.write_text(changed)
                verdict = _pytest(work, tests, args.timeout)
                copied.write_text(source)
                scored += 1
                killed += verdict == "killed"
            note = f"\n           ({EQUIVALENT[key]})" if key in EQUIVALENT else ""
            print(f"{verdict:10} {target.name}:{number} {function}: {original!r} -> {text!r}\n"
                  f"           {line}{note}", flush=True)
    print(f"score: {killed} of {scored} killed ({len(chosen) - scored} equivalent left out)")


if __name__ == "__main__":
    main()
