"""Reach census: which functions in ``src/repro`` does anything run?

    python benchmarks/reach.py                       # every entry point (~8 min)
    python benchmarks/reach.py --only tier1 --only suite-learn-trace0
    python benchmarks/reach.py --traces /tmp/reach   # keep the traces

Runs each entry point below in its own interpreter with a generated
``sitecustomize.py`` first on ``PYTHONPATH``.  That hook records every
executed code object through ``sys.setprofile`` / ``threading.setprofile``
(``"call"`` events only) and writes one file per process at exit, so spawned
scorer processes, forked shard workers and the suite's re-executed child are
traced too.  Forked children leave through ``os._exit``, which the hook wraps
to write first; a fork starts its child with an empty record.

A function is listed with ``ast`` (methods and nested functions too) and is
*reached* when some process executed its ``(file, qualname, first line)``.
It is *test-only* when tier-1 is the only entry point that reached it.  A
declaration is not a finding: a dunder method, an ``abc.abstractmethod``, or
a body that is only a docstring, ``...``, ``pass`` or
``raise NotImplementedError``.

Benchmarks run with ``--benchmark-disable``: pytest-benchmark otherwise calls
``sys.setprofile(None)`` around each timed call, and everything that call
runs reads as unreached.

Exits 1 when an entry point failed, when ``--only`` left the census partial,
when a non-declaration function is unreached, or when more non-declaration
functions are test-only than :data:`TEST_ONLY_LIMIT` — a ratchet: a change
that deletes test-only code lowers the limit, and none may raise it.

Before tracing anything, a static pass counts the settable values no program
sets: every defaulted parameter of an ``__init__`` in ``src/repro`` that no
call in ``src/``, ``examples/`` or ``benchmarks/`` passes, by keyword or by
position.  A call is ``Name(...)``, ``module.Name(...)``, ``cls(...)`` inside
the class, or ``super().__init__(...)`` inside a subclass (which passes the
base classes' parameters); a call with a ``*args`` or a non-literal
``**mapping`` counts as passing everything.  The pass lists what it finds and
exits 1 at once when there are more than :data:`UNSET_OPTION_LIMIT`, a
ratchet like the other one.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "repro"
EXAMPLES = ROOT / "examples"
BENCHMARKS = ROOT / "benchmarks"

#: The entry point whose reach does not count toward "run by the program".
TESTS = "tier1"

#: Non-declaration functions reached only by tier-1 in this tree.  The
#: census fails above it; lower it whenever a change leaves fewer.
TEST_ONLY_LIMIT = 74

#: Defaulted ``__init__`` parameters no program passes, each kept for a
#: reason (a test seam, a deployment setting).  The static pass fails above
#: it; lower it whenever a change leaves fewer.
UNSET_OPTION_LIMIT = 14

#: Where the programs live whose calls count as setting a value.
PROGRAMS = (SOURCE, EXAMPLES, BENCHMARKS)

HOOK = '''\
import atexit
import os
import sys
import threading
import time

_PACKAGE = {package!r}
_OUT = {out!r}
_CWD = os.getcwd()
_seen = {{}}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _write():
    rows = set()
    for code in list(_seen.values()):
        name = os.path.join(_CWD, code.co_filename)
        if name.startswith(_PACKAGE):
            rows.add(f"{{name}}\\t{{code.co_firstlineno}}\\t{{code.co_qualname}}\\n")
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{time.time_ns()}}.txt")
    with open(path, "w") as handle:
        handle.writelines(sorted(rows))


def _exit(status, _real=os._exit):
    _write()
    _real(status)


os._exit = _exit
os.register_at_fork(after_in_child=_seen.clear)
atexit.register(_write)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


class Option:
    """One defaulted parameter of a class's ``__init__``."""

    def __init__(self, path: Path, klass: str, line: int, name: str, position: int | None):
        self.path = path
        self.klass = klass
        self.line = line
        self.name = name
        #: Index among the positional parameters after ``self`` (None when
        #: keyword-only).
        self.position = position

    def __str__(self) -> str:
        where = f"{self.path.relative_to(SOURCE)}:{self.line}"
        return f"{where:<44} {self.klass}({self.name})"


def list_options() -> list[Option]:
    """Every defaulted parameter of an ``__init__`` in the package."""
    options = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for klass in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(klass, ast.ClassDef):
                continue
            for node in klass.body:
                if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                    continue
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args][1:]
                first_default = len(positional) - len(args.defaults)
                options += [
                    Option(path, klass.name, node.lineno, name, index)
                    for index, name in enumerate(positional)
                    if index >= first_default
                ]
                options += [
                    Option(path, klass.name, node.lineno, a.arg, None)
                    for a, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
    return options


def base_names(klass: ast.ClassDef) -> list[str]:
    return [
        base.id if isinstance(base, ast.Name) else base.attr
        for base in klass.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    ]


def called_class(call: ast.Call, klass: ast.ClassDef | None) -> list[str]:
    """The class names a call constructs (several for ``super().__init__``)."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and klass is not None:
            return [klass.name]
        return [func.id]
    if isinstance(func, ast.Attribute):
        value = func.value
        if (
            func.attr == "__init__"
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
            and klass is not None
        ):
            return base_names(klass)
        return [func.attr]
    return []


def passed_arguments() -> dict[str, set]:
    """Class name → what program calls pass: keyword names, positional
    indexes, and ``...`` for everything."""
    passed: dict[str, set] = defaultdict(set)
    for root in PROGRAMS:
        for path in sorted(root.rglob("*.py")):
            stack: list[tuple[ast.AST, ast.ClassDef | None]] = [
                (ast.parse(path.read_text(), str(path)), None)
            ]
            while stack:
                node, klass = stack.pop()
                for child in ast.iter_child_nodes(node):
                    stack.append((child, child if isinstance(child, ast.ClassDef) else klass))
                    if not isinstance(child, ast.Call):
                        continue
                    for name in called_class(child, klass):
                        got = passed[name]
                        for index, argument in enumerate(child.args):
                            got.add(... if isinstance(argument, ast.Starred) else index)
                        for keyword in child.keywords:
                            if keyword.arg is not None:
                                got.add(keyword.arg)
                            elif isinstance(keyword.value, ast.Dict) and all(
                                isinstance(key, ast.Constant) for key in keyword.value.keys
                            ):
                                got.update(key.value for key in keyword.value.keys)
                            else:
                                got.add(...)
    return passed


def unset_options() -> list[Option]:
    """The defaulted ``__init__`` parameters no program call passes."""
    passed = passed_arguments()
    unset = []
    for option in list_options():
        got = passed.get(option.klass, set())
        if ... in got or option.name in got or option.position in got:
            continue
        unset.append(option)
    return unset


def report_options(options: list[Option]) -> int:
    print(f"settable values no program sets: {len(options)} "
          f"(pinned limit {UNSET_OPTION_LIMIT})")
    for option in options:
        print(f"  {option}")
    if len(options) > UNSET_OPTION_LIMIT:
        print(f"\nUNSET OPTIONS above the pinned {UNSET_OPTION_LIMIT}: make the new "
              "ones constants where they are used, or have a program set them")
        return 1
    return 0


def entry_points(workdir: Path) -> dict[str, tuple[list[str], dict[str, str]]]:
    """Name → (argv after the interpreter, extra environment)."""
    # bench_paper.py's verdicts are those of one seeded trajectory, which the
    # hash seed and the BLAS thread count both select.
    quick = {"REPRO_BENCH_QUICK": "1", "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}
    serve = str(EXAMPLES / "serve_http.py")
    persist = str(workdir / "persist")
    points: dict[str, tuple[list[str], dict[str, str]]] = {
        TESTS: (["-m", "pytest", "-q", "-p", "no:cacheprovider"], {}),
    }
    for workload in ("cold_plan", "served_warm", "served_mixed", "learn"):
        for trace in (0, 1):
            points[f"suite-{workload}-trace{trace}"] = (
                [str(BENCHMARKS / "suite" / "run.py"), "--workload", workload,
                 "--seconds", "3", "--trace", str(trace)],
                {},
            )
    # The suite's self-tests drive its oracle and classifier over the
    # library (a search result's JSON among them).
    points["suite-selftest"] = (
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(BENCHMARKS / "suite" / "test_suite.py")],
        {},
    )
    points.update({
        "serve-smoke": ([serve, "--smoke"], {}),
        "serve-learn": ([serve, "--smoke", "--learn"], {}),
        "serve-workers": ([serve, "--smoke", "--workers", "2"], {}),
        "serve-persist": ([serve, "--smoke", "--persist-dir", persist], {}),
        "serve-restore": ([serve, "--smoke", "--persist-dir", persist], {}),
        "serve-observe": (
            [serve, "--smoke", "--log-json",
             "--traces-out", str(workdir / "traces.json"),
             "--profile-out", str(workdir / "profile.json")],
            {},
        ),
    })
    points["warm-reply"] = (
        [str(BENCHMARKS / "warm_reply.py"), "--rounds", "2", "--batch", "20"], {}
    )
    for example in sorted(EXAMPLES.glob("*.py")):
        if example.name != "serve_http.py":
            points[f"example-{example.stem}"] = ([str(example)], {})
    points["benches"] = (
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         *map(str, sorted(BENCHMARKS.glob("bench_*.py")))],
        quick,
    )
    return points


def run_entry_point(name: str, argv: list[str], env: dict[str, str], traces: Path) -> bool:
    """Run one entry point under the hook; its traces land in ``traces/name``."""
    out = traces / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    hook = out / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        HOOK.format(package=str(PACKAGE) + os.sep, out=str(out))
    )
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(SOURCE), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    started = time.monotonic()
    with open(traces / f"{name}.log", "w") as log:
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env,
            stdout=log, stderr=subprocess.STDOUT, timeout=1800,
        )
    files = len(list(out.glob("*.txt")))
    print(f"  {name:<34} exit {done.returncode}  {time.monotonic() - started:6.1f} s  "
          f"{files} process(es)", flush=True)
    if done.returncode != 0:
        tail = (traces / f"{name}.log").read_text().splitlines()[-20:]
        print("\n".join("    | " + line for line in tail))
    return done.returncode == 0


def load_reach(traces: Path, names: list[str]) -> dict[tuple[str, int, str], set[str]]:
    """``(file, first line, qualname)`` → names of the entry points that ran it."""
    reach: dict[tuple[str, int, str], set[str]] = defaultdict(set)
    for name in names:
        for path in (traces / name).glob("*.txt"):
            for line in path.read_text().splitlines():
                filename, first, qualname = line.split("\t")
                reach[(filename, int(first), qualname)].add(name)
    return reach


class Function:
    """One ``def`` in the package, as the interpreter names its code object."""

    def __init__(self, path: Path, node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str):
        self.path = path
        self.qualname = qualname
        self.first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        self.last = node.end_lineno
        self.declaration = is_declaration(node)

    @property
    def key(self) -> tuple[str, int, str]:
        return (str(self.path), self.first, self.qualname)

    def __str__(self) -> str:
        where = f"{self.path.relative_to(SOURCE)}:{self.first}"
        return f"{where:<44} {self.qualname} ({self.last - self.first + 1} lines)"


def is_declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    for decorator in node.decorator_list:
        if (isinstance(decorator, ast.Name) and decorator.id == "abstractmethod") or (
            isinstance(decorator, ast.Attribute) and decorator.attr == "abstractmethod"
        ):
            return True
    body = node.body
    if ast.get_docstring(node) is not None:
        body = body[1:]
    return all(is_stub(statement) for statement in body)


def is_stub(statement: ast.stmt) -> bool:
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def list_functions() -> list[Function]:
    functions = []
    for path in sorted(PACKAGE.rglob("*.py")):
        stack: list[tuple[ast.AST, str]] = [(ast.parse(path.read_text(), str(path)), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    functions.append(Function(path, child, qualname))
                    stack.append((child, qualname + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
                else:
                    stack.append((child, prefix))
    return functions


def line_count(functions: list[Function]) -> int:
    """Distinct source lines, so a nested function is not counted twice."""
    lines = {(f.path, n) for f in functions for n in range(f.first, f.last + 1)}
    return len(lines)


def report(functions: list[Function], reach: dict, complete: bool, failed: list[str]) -> int:
    unreached = [f for f in functions if not reach.get(f.key)]
    findings = [f for f in unreached if not f.declaration]
    test_only = [f for f in functions if reach.get(f.key) == {TESTS}]
    test_only_findings = sum(not f.declaration for f in test_only)
    print(f"\n{len(functions)} functions in {PACKAGE.relative_to(ROOT)} "
          f"({sum(f.declaration for f in functions)} declarations)")
    print(f"unreached: {len(unreached)} ({line_count(unreached)} lines), "
          f"{len(unreached) - len(findings)} of them declarations")
    print(f"test-only: {len(test_only)} ({line_count(test_only)} lines), "
          f"{test_only_findings} of them not declarations")
    if test_only:
        print("\nreached only by tier-1:")
        for function in test_only:
            print(f"  {function}")
    if findings:
        print("\nUNREACHED (not a declaration):")
        for function in findings:
            print(f"  {function}")
    over = complete and test_only_findings > TEST_ONLY_LIMIT
    if over:
        print(f"\nTEST-ONLY above the pinned {TEST_ONLY_LIMIT} non-declaration "
              "functions: reach the new ones (listed above) from the program or "
              "delete them")
    if failed:
        print(f"\nFAILED entry points: {', '.join(failed)}")
    if not complete:
        print("\nPARTIAL census: not every entry point was traced")
    return 1 if findings or failed or not complete or over else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="run just this entry point (repeatable); others "
                             "already traced in --traces are still read")
    parser.add_argument("--traces", type=Path,
                        help="keep traces and logs here (default: a temporary directory)")
    args = parser.parse_args()

    if report_options(unset_options()):
        return 1
    traces = args.traces or Path(tempfile.mkdtemp(prefix="reach-"))
    traces.mkdir(parents=True, exist_ok=True)
    try:
        points = entry_points(traces)
        unknown = set(args.only) - set(points)
        if unknown:
            parser.error(f"unknown entry point(s) {sorted(unknown)}; known: {sorted(points)}")
        print(f"tracing into {traces}")
        failed = [
            name for name, (argv, env) in points.items()
            if (not args.only or name in args.only)
            and not run_entry_point(name, argv, env, traces)
        ]
        traced = [name for name in points if (traces / name).is_dir()]
        return report(list_functions(), load_reach(traces, traced),
                      len(traced) == len(points), failed)
    finally:
        if args.traces is None:
            shutil.rmtree(traces, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
