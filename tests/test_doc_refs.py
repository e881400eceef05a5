"""Every backticked ``repro.…`` name and file path in the prose docs
must resolve.

A dotted name in README.md, DESIGN.md, EXPERIMENTS.md or ``docs/*.md``
such as ```repro.core.layers``` or ```repro.graph.csr.CSRGraph``` must
import as a module, or as a module followed by attributes.  A path
such as ```serve/supervision.py``` or
```benchmarks/smoke_chaos_serve.py``` must name a file in the repo,
relative to the repo root, ``src/`` or ``src/repro/``.  Glob patterns
(```repro.centrality.group_*```, ```benchmarks/reports/*.txt```) name
families, not objects, and are skipped.  This keeps the docs honest
when a module, symbol or file is deleted or renamed; a deleted file
may still be named in history prose, just not in backticks.
"""

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


def test_docs_name_repo_paths():
    assert sum(len(doc_paths(doc)) for doc in DOCS) >= 20


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    missing = [path for path in doc_paths(doc) if not path_exists(path)]
    assert not missing, f"{doc} names missing files: {missing}"
