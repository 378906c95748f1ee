"""The names that README's library prose cites are the package's names.

Every backticked ``Name.member`` and bare name in the "Library layout" and
"Serialization notes" sections must resolve by ``getattr``: on a ``chronoq``
module, on a class one defines, or, for the few names the README cites from
numpy, on numpy.  A function deleted or renamed in the code then fails here
instead of staying in the prose.
"""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np

import chronoq
from chronoq.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = ("Library layout", "Serialization notes")
# The numpy names the README cites, by the prefix it writes them with; its
# bare numpy names (``eigh``, ``eigvalsh``) are numpy.linalg's.
NUMPY = {"np": np, "numpy": np, "Generator": np.random.Generator}
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?")


def _section(text, title):
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def _documented_names():
    text = README.read_text(encoding="utf-8")
    sections = [_section(text, title) for title in SECTIONS]
    spans = {span for section in sections for span in re.findall(r"`([^`\n]+)`", section)}
    # Spans that are not names are code or formulas; one-letter names are
    # the formulas' symbols (n, D).
    return sorted(span for span in spans if NAME.fullmatch(span) and len(span) > 1)


def _has(owner, name):
    """``getattr`` finds ``name`` on ``owner``, or it is a dataclass field
    that only instances carry (``TypicalCodec.width``)."""
    return hasattr(owner, name) or any(
        name in vars(cls).get("__annotations__", {}) for cls in getattr(owner, "__mro__", ())
    )


def test_readme_library_names_resolve():
    modules = [importlib.import_module(f"chronoq.{name}") for name in chronoq._SUBMODULES]
    classes = {
        name: obj
        for module in modules
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }
    owners = {"chronoq": chronoq, **NUMPY, **classes}
    scopes = [chronoq, np.linalg, *modules, *classes.values()]

    def resolves(name):
        head, _, member = name.partition(".")
        if member:
            return head in owners and _has(owners[head], member)
        return name == "chronoq" or name in main.commands or any(_has(s, name) for s in scopes)

    names = _documented_names()
    assert {"StateVector", "chronoq.qcore", "measure_qubit", "np.vdot"} <= set(names)
    assert [name for name in names if not resolves(name)] == []
