"""Markers that would hide a failing test."""

import re
from pathlib import Path

#: a warning filter that turns every warning, of any category, into an
#: error: the action ``error`` with no ``::Category`` after it
BARE_ERROR = re.compile(r"""filterwarnings\(\s*[rbuf]?["']error(?!::\w)""")


def test_warnings_are_made_errors_by_category_only():
    """A failing hypothesis test under a bare ``error`` filter stops the
    whole session with INTERNALERROR, because hypothesis' own teardown
    warns, and the run reports only ``1 failed``.  A filter names its
    category, as ``error::RuntimeWarning`` does."""
    bare = [f"{path.name}:{number}"
            for path in sorted(Path(__file__).parent.glob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if BARE_ERROR.search(line)]
    assert not bare, f"bare error filters at {', '.join(bare)}"
    # the pattern itself, on markers built here so that this file has none
    for action, is_bare in [("error", True), ("error:message", True),
                            ("error::RuntimeWarning", False)]:
        marker = "@pytest.mark.filterwarnings(%r)" % action
        assert bool(BARE_ERROR.search(marker)) == is_bare, marker
