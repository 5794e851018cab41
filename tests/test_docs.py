"""README.md and docs/*.md name the package's code and the repository's files
in inline code spans and links; a name that stops resolving fails here."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import qlinesearch

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
MODULES = {"qlinesearch"} | {m.name for m in pkgutil.iter_modules(qlinesearch.__path__)}
PATH_SUFFIXES = (".py", ".md", ".toml", ".json", ".yml", ".csv")


def _spans(document):
    """The inline code spans and the link targets of ``document``, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", document.read_text(encoding="utf-8"), flags=re.S)
    return re.findall(r"`([^`\n]+)`", text), re.findall(r"\]\(([^)\s]+)\)", text)


def _names_package_code(span):
    """Whether a dotted span names the package's code: its first part is the
    package, one of its modules or exports, or no other top-level module
    (``numpy.linalg.eigh`` is numpy's; ``qcalc.q_difference`` is a stale name)."""
    first = span.split(".")[0]
    return first in MODULES or importlib.util.find_spec(first) is None


def _resolve(name):
    """The object a dotted name of the package's code names: a module of the
    package, or an attribute of the package or of one of its modules."""
    parts = name.split(".")
    if parts[0] != "qlinesearch":
        parts.insert(0, "qlinesearch")
    obj = qlinesearch
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_named_code_and_paths_exist(document):
    spans, links = _spans(document)
    names = [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)
             and not s.endswith(PATH_SUFFIXES) and _names_package_code(s)]
    for name in names:
        try:
            _resolve(name)
        except AttributeError:
            pytest.fail(f"{document.name} names `{name}`, which the package does not have")
    paths = [token.split("::")[0] for s in spans for token in s.split()
             if token.split("::")[0].endswith(PATH_SUFFIXES)]
    assert names and paths
    for path in paths:
        assert list(ROOT.glob(re.sub(r"<[^>]*>", "*", path))), \
            f"{document.name} names `{path}`, which the repository does not have"
    for link in links:
        if "://" not in link:
            assert (document.parent / link).exists(), f"{document.name} links {link}"
