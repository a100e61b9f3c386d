import pytest


def _drop_last_column(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


# Each rewrites the lines of a table file (a header, then at least one row)
# so that the file no longer matches its declared columns.
_MALFORMATIONS = {
    "missing column": _drop_last_column,
    "extra column": lambda lines: [line + ",0" for line in lines],
    "renamed column": lambda lines: [_drop_last_column(lines[:1])[0] + ",bogus", *lines[1:]],
    "short row": lambda lines: [*lines[:-1], *_drop_last_column(lines[-1:])],
    "long row": lambda lines: [*lines[:-1], lines[-1] + ",0"],
}


@pytest.fixture(params=list(_MALFORMATIONS))
def malform_table(request):
    """A function that rewrites a table file with one header or row-width fault."""

    def malform(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(_MALFORMATIONS[request.param](lines)) + "\n")

    return malform
