"""The public surface: every exported name is used by the package or documented.

A name in ``proxdyn.__all__`` passes when the package source loads it or
when README.md names it as a whole word.  The source loads a name where the
name is read (an ``ast.Name`` in Load context), imported by a relative
import, or read as an attribute of one of the package's modules, as in
``dynamics.integrate``.  A definition, a dataclass field or an ``__all__``
entry of the same spelling is no use.  Dunder metadata such as
``__version__`` is exempt.  A public name that neither holds is a second
route nobody takes, and is deleted instead.
"""

import ast
import re
from pathlib import Path

import pytest

import proxdyn

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names():
    """Every name that the package source loads, in the sense of the module docstring."""
    loaded = set()
    for path in sorted((ROOT / "src" / "proxdyn").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        modules = {alias.asname or alias.name for node in nodes
                   if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                   for alias in node.names}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level:
                loaded.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                loaded.add(node.attr)
    return loaded


LOADED = _loaded_names()


@pytest.mark.parametrize("name", proxdyn.__all__)
def test_every_public_name_is_used_or_documented(name):
    dunder = name.startswith("__") and name.endswith("__")
    readme = (ROOT / "README.md").read_text()
    assert dunder or name in LOADED or re.search(r"\b%s\b" % re.escape(name), readme), (
        "%s is exported but neither used in src/proxdyn nor named in README.md" % name
    )
