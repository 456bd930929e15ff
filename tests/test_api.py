"""The public surface: every exported name is used by the package or documented.

A name in ``proxdyn.__all__`` passes when it appears, as a whole word, in
the package source outside its own ``def`` or ``class`` line and outside
the ``__all__`` lists, or when README.md names it.  A public name that
neither holds is a second route nobody takes, and is deleted instead.
"""

import re
from pathlib import Path

import pytest

import proxdyn

ROOT = Path(__file__).resolve().parents[1]


def _source_uses():
    """The package source with the ``__all__`` lists removed."""
    text = "\n".join(path.read_text() for path in sorted((ROOT / "src" / "proxdyn").glob("*.py")))
    return re.sub(r"^__all__ = \[[^]]*\]", "", text, flags=re.M)


@pytest.mark.parametrize("name", proxdyn.__all__)
def test_every_public_name_is_used_or_documented(name):
    word = r"\b%s\b" % re.escape(name)
    source = re.sub(r"^\s*(def|class) %s\b.*$" % re.escape(name), "", _source_uses(), flags=re.M)
    readme = (ROOT / "README.md").read_text()
    assert re.search(word, source) or re.search(word, readme), (
        "%s is exported but neither used in src/proxdyn nor named in README.md" % name
    )
