"""Opt-in reach check: every function in ``src/chronoq`` is run by a command
or an acceptance test, or is allowlisted with its reason.

With ``CHRONOQ_REACH=1`` a ``sys.setprofile`` hook records each function of
the package that is entered while the tests are collected (which imports the
modules) and while ``tests/test_cli.py`` and ``tests/test_acceptance.py``
run.  At the end of the session each function defined in ``src/chronoq``
(named ``module.Class.function`` from the sources' syntax trees, nested
functions included) must have been entered or be listed in
``tests/reach_allowlist.txt``; otherwise the session fails and names it.
A listed name that no longer exists fails it too.  Run both files:

    CHRONOQ_REACH=1 PYTHONPATH=src python -m pytest -q tests/test_cli.py tests/test_acceptance.py

Without the variable this file installs nothing.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chronoq"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"
RECORDED = ("test_cli.py", "test_acceptance.py")


def defined_functions() -> dict:
    """``(file name, first line, function name) -> qualified name`` of every
    function and method in the package's sources.  The first line is the
    first decorator's, as in the function's code object."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}.{child.name}"
                    found[(path.name, first, child.name)] = name
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return found


def read_allowlist() -> dict:
    """``name -> reason`` from lines ``name  reason``; ``#`` starts a comment."""
    allowed = {}
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, _, reason = line.partition(" ")
            if not reason.strip():
                raise ValueError(f"{ALLOWLIST.name}: {name} has no reason")
            allowed[name] = reason.strip()
    return allowed


class ReachCheck:
    """The pytest plugin of the check: it records, then compares at the end."""

    def __init__(self):
        self.codes = set()
        self.on = False
        self.files = set()
        self.failures = []

    def profile(self, frame, event, arg):
        if self.on and event == "call":
            self.codes.add(frame.f_code)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_collection(self, session):
        self.on = True
        yield
        self.on = False

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.on = item.path.name in RECORDED
        if self.on:
            self.files.add(item.path.name)
        yield
        self.on = False

    def pytest_sessionfinish(self, session, exitstatus):
        sys.setprofile(None)
        defined = defined_functions()
        names = set(defined.values())
        allowed = read_allowlist()
        if self.files != set(RECORDED):
            self.failures.append(f"the reach check needs both {' and '.join(RECORDED)}")
        else:
            entered = {
                (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
                for code in self.codes
                if Path(code.co_filename).resolve().parent == PACKAGE
            }
            reached = {defined[key] for key in entered if key in defined}
            self.failures.extend(
                f"unreached and not allowlisted: {name}"
                for name in sorted(names - reached - set(allowed))
            )
        self.failures.extend(
            f"allowlisted but not defined: {name}" for name in sorted(set(allowed) - names)
        )
        if self.failures:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("reach check")
        for line in self.failures or ["every src/chronoq function is reached or allowlisted"]:
            terminalreporter.write_line(line)


def pytest_configure(config):
    if os.environ.get("CHRONOQ_REACH"):
        check = ReachCheck()
        config.pluginmanager.register(check, "chronoq-reach")
        sys.setprofile(check.profile)
