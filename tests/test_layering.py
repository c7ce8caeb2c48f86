"""The planning core does not import the serving stack.

The core — query model, storage, execution, cost models, optimizers, search,
the value network and its training, the agent and the workloads — is what
the paper describes; the gateway, the planner service, the scoring
backends, telemetry, the model lifecycle and the online-learning loop are
built on top of it.  This test parses every module of the core (every
``import`` statement, including those inside functions and
``TYPE_CHECKING`` blocks) and fails on an import of a serving package,
except for the named pairs below.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: The serving stack: packages (and one module) the core must not import.
SERVING = ("server", "service", "scoring", "telemetry", "lifecycle", "experience", "ipc")

#: The top-level modules that are not core: the public surface re-exports
#: the serving stack by design.
SURFACE = ("__init__.py", "api.py")

#: (core module, imported module) pairs that stay, each for a reason.
ALLOWED = {
    # The benchmark suite's self-test encodes a search result with
    # ``PlanResult.to_json_dict``.
    ("planning/envelope.py", "repro.server.wire"),
}


def core_modules() -> list[Path]:
    modules = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        top = relative.parts[0].removesuffix(".py")
        if top in SERVING or (len(relative.parts) == 1 and relative.name in SURFACE):
            continue
        modules.append(path)
    return modules


def imported_modules(path: Path) -> list[str]:
    """Every module ``path`` imports, absolute, wherever the statement sits."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names.append(node.module)
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return names


def serving_imports(path: Path) -> set[str]:
    return {
        name
        for name in imported_modules(path)
        if name.split(".")[:2] in (["repro", package] for package in SERVING)
    }


def test_the_core_is_what_it_should_be():
    core = {str(path.relative_to(PACKAGE)) for path in core_modules()}
    assert "planning/envelope.py" in core and "agent/balsa.py" in core
    assert not any(name.startswith(("server/", "service/", "ipc.py")) for name in core)


def test_the_core_imports_no_serving_package():
    found = set()
    for path in core_modules():
        relative = str(path.relative_to(PACKAGE))
        for name in serving_imports(path):
            # ``from repro.service.service import X`` names the module and
            # ``repro.service.service.X``: the pair is kept by its module.
            module = next(
                (allowed for (where, allowed) in ALLOWED
                 if where == relative and (name == allowed or name.startswith(allowed + "."))),
                None,
            )
            if module is None:
                found.add((relative, name))
    assert not found, sorted(found)


def test_every_allowed_pair_is_still_needed():
    for where, module in ALLOWED:
        assert module in serving_imports(PACKAGE / where), (where, module)
