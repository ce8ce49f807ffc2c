"""Repository-wide API quality gates.

These tests walk every package of the installed library and enforce the
documentation and determinism conventions it promises: every public
module, class and function carries a docstring, the public surface of
each package's ``__all__`` actually resolves, and every public top-level
function or class is used by code outside ``tests/`` (or is allow-listed
with a reason in ``_TEST_ONLY_API``).
"""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__, prefix=f"{package_name}."):
            yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_class_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-export
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"classes without docstrings: {undocumented}"

    def test_every_public_function_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"functions without docstrings: {undocumented}"


class TestPublicSurface:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
#: Code outside ``src/`` whose references count as a use of the library.
USER_DIRS = ("bench", "scripts", "examples", "benchmarks")

#: Public definitions that only tests reach, each kept for a stated reason.
_TEST_ONLY_API = {
    "check_gradients": "the finite-difference oracle the autograd and layer tests compare against",
    "InMemoryExporter": "the fake exporter the telemetry tests substitute for a real sink",
    "load_registry_jsonl": "user API for reading a JSONL trace back, documented in docs/OBSERVABILITY.md",
    "paper_scale_config": "user API for the paper's full-scale settings, documented in README and EXPERIMENTS.md",
}


#: Module aliases whose attributes are never this library's definitions
#: (``np.concatenate`` does not use a ``concatenate`` of ours).
_FOREIGN_MODULES = {"np", "numpy"}


def _references(node, with_strings):
    """Names a syntax tree uses: ``Name`` ids, ``Attribute`` attrs (except
    attributes of numpy) and, when ``with_strings``, identifier-shaped
    string constants (registries and ``getattr`` look names up by string)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in _FOREIGN_MODULES):
                names.add(sub.attr)
        elif with_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                names.add(sub.value)
    return names


def _is_all_assignment(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
    )


def _scan():
    """``(definitions, src_uses, user_names)``: every public top-level
    definition in ``src/repro`` as ``(path, line, name, names its own body
    uses)``; how many top-level statements of ``src/repro`` use each name;
    and the names code outside ``src/`` and ``tests/`` uses."""
    definitions = []
    src_uses = Counter()
    for path in sorted(SRC.rglob("*.py")):
        with_strings = path.name != "__init__.py"
        for stmt in ast.parse(path.read_text()).body:
            if _is_all_assignment(stmt):
                continue
            refs = _references(stmt, with_strings)
            src_uses.update(refs)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    definitions.append((path, stmt.lineno, stmt.name, refs))
    user_names = set()
    for directory in USER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            user_names |= _references(ast.parse(path.read_text()), True)
        for path in sorted((REPO / directory).rglob("*.sh")):
            user_names |= set(re.findall(r"\w+", path.read_text()))
    return definitions, src_uses, user_names


def _unreached():
    """Public definitions used by nothing outside their own body and ``tests/``."""
    definitions, src_uses, user_names = _scan()
    return [
        (path, line, name)
        for path, line, name, own in definitions
        if src_uses[name] == (name in own) and name not in user_names
    ]


class TestReachability:
    """Public code that only tests reach is a second API nobody runs."""

    def test_every_public_definition_is_reached(self):
        unreached = [
            f"{path.relative_to(REPO)}:{line} {name}"
            for path, line, name in _unreached()
            if name not in _TEST_ONLY_API
        ]
        assert not unreached, (
            "public definitions used only by tests (delete them, or add them "
            "to _TEST_ONLY_API with a reason):\n" + "\n".join(unreached)
        )

    def test_allow_list_is_current(self):
        defined = {name for _, _, name, _ in _scan()[0]}
        unreached = {name for _, _, name in _unreached()}
        stale = [
            f"{name}: " + ("no longer defined" if name not in defined else "now reached outside tests")
            for name in sorted(_TEST_ONLY_API)
            if name not in unreached
        ]
        assert not stale, "stale _TEST_ONLY_API entries:\n" + "\n".join(stale)
