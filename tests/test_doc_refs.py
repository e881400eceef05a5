"""Every backticked ``repro.…`` name and file path in the prose docs,
and every backticked ``repro.…`` name in a package docstring, must
resolve.

A dotted name in README.md, DESIGN.md, EXPERIMENTS.md or ``docs/*.md``
such as ```repro.core.layers``` or ```repro.graph.csr.edge_index```
must import as a module, or as a module followed by attributes.  So
must a cross-reference in a module, class or function docstring under
``src/repro`` (```:class:`~repro.graph.adjacency.Graph` ```), including
one wrapped after a dot onto the next line.  A path
such as ```serve/supervision.py``` or
```benchmarks/smoke_chaos_serve.py``` must name a file in the repo,
relative to the repo root, ``src/`` or ``src/repro/``.  Glob patterns
(```repro.centrality.group_*```, ```benchmarks/reports/*.txt```) name
families, not objects, and are skipped.  This keeps the docs honest
when a module, symbol or file is deleted or renamed; a deleted file
may still be named in history prose, just not in backticks.
"""

import ast
import glob
import importlib
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    os.path.relpath(path, REPO_ROOT)
    for path in glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))
)

#: A backtick span that opens with a dotted ``repro`` name; anything
#: after the name inside the span (a call's ``(g)``) is ignored.
NAME = re.compile(r"`(repro(?:\.[\w*]+)+)")

#: The same in a docstring, where a Sphinx role may prefix ``~``.
DOCSTRING_NAME = re.compile(r"`~?(repro(?:\.[\w*]+)+)")

#: A dotted name wrapped after a dot: ``repro.graph.`` + newline +
#: indent + ``adjacency.Graph`` reads as one name.
WRAPPED_DOT = re.compile(r"\.\s*\n\s*")

#: Every Python file of the package, relative to the repo root.
SOURCES = sorted(
    os.path.relpath(path, REPO_ROOT)
    for path in glob.glob(
        os.path.join(REPO_ROOT, "src", "repro", "**", "*.py"), recursive=True
    )
)

#: A backtick span that opens with a relative file path: at least one
#: ``/`` and a file extension; a ``::test`` suffix is ignored.
PATH = re.compile(r"`([\w.-]+(?:/[\w.*-]+)+\.(?:py|md|json|toml|ya?ml|txt))")

#: Where a documented path may be rooted.
PATH_ROOTS = ("", "src", os.path.join("src", "repro"))


def _doc_matches(doc, pattern):
    with open(os.path.join(REPO_ROOT, doc), encoding="utf-8") as fh:
        names = set(pattern.findall(fh.read()))
    return sorted(name for name in names if "*" not in name)


def doc_names(doc):
    return _doc_matches(doc, NAME)


def docstring_names(source):
    """The ``repro.…`` names cited in ``source``'s docstrings."""
    with open(os.path.join(REPO_ROOT, source), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                names.update(
                    DOCSTRING_NAME.findall(WRAPPED_DOT.sub(".", doc))
                )
    return sorted(name for name in names if "*" not in name)


def doc_paths(doc):
    return _doc_matches(doc, PATH)


def path_exists(path):
    return any(
        os.path.isfile(os.path.join(REPO_ROOT, root, path))
        for root in PATH_ROOTS
    )


def resolves(name):
    """Import the longest module prefix of ``name``, then walk the rest
    as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_name_repro_objects():
    # Guards the scan itself: a regex that matched nothing would pass
    # every per-document check below.
    assert sum(len(doc_names(doc)) for doc in DOCS) >= 20


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_object_imports(doc):
    unresolved = [name for name in doc_names(doc) if not resolves(name)]
    assert not unresolved, f"{doc} names missing objects: {unresolved}"


def test_docstrings_name_repro_objects():
    assert sum(len(docstring_names(src)) for src in SOURCES) >= 100


@pytest.mark.parametrize("source", SOURCES)
def test_every_docstring_name_imports(source):
    unresolved = [
        name for name in docstring_names(source) if not resolves(name)
    ]
    assert not unresolved, f"{source} docstrings name missing objects: {unresolved}"


def test_docs_name_repo_paths():
    assert sum(len(doc_paths(doc)) for doc in DOCS) >= 20


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    missing = [path for path in doc_paths(doc) if not path_exists(path)]
    assert not missing, f"{doc} names missing files: {missing}"
