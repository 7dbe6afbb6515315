import ast
import pathlib

import affchar


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no invariant may rest on one
    modules = sorted(pathlib.Path(affchar.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
