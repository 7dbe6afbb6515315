import ast
import pathlib
import re
import subprocess
import sys

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


def _module_trees():
    package = pathlib.Path(affchar.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(package.glob("*.py"))}


def _top_level_names(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_package_exports_are_defined_where_imported():
    # a name re-exported by __init__ must be defined in its own module, not
    # merely imported there
    trees = _module_trees()
    missing = []
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defined = _top_level_names(trees[node.module])
            missing += ["%s.%s" % (node.module, a.name) for a in node.names
                        if a.name not in defined]
    assert missing == []


# wrappers and test-only code deleted from the package; the tests hold the
# references (conftest.py) and callers use the QCharacter methods
REMOVED_NAMES = [
    "AffineWeylElement", "translation_reduced_word", "affine_pair",
    "simple_affine_coroot", "is_positive", "is_root", "apply_word_coweight",
    "weyl_elements", "apply_matrix_weight", "_weyl_cache", "qchar_mul",
    "demazure_op", "effective_depth", "fock_character", "coset_points_up_to",
    "finite_multiplicity", "node_pairing", "reflect_affine_weight", "_node_data",
    "demazure_character_from_word", "in_coroot_lattice", "simple_pairing",
    "CHECK_IDENTITY", "_CHECKS", "_REQUIRED", "_LEVEL_ONE", "weyl_dimension",
    # one cap, --cap-orbit, bounds every walk
    "cap_elements", "cap-elements", "CAP_ELEMENTS", "AFFCHAR_CAP_ELEMENTS",
    "DEFAULT_ELEMENT_CAP", "DEFAULT_POINT_CAP", "ENV_PREFIX", "_RAISING_CAP",
]


def test_removed_names_stay_out_of_package():
    pattern = re.compile(r"\b(%s)\b" % "|".join(REMOVED_NAMES))
    found = []
    for path in sorted(pathlib.Path(affchar.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            found += ["%s:%d %s" % (path.name, lineno, m) for m in pattern.findall(line)]
    trees = _module_trees()
    # methods that stay on QCharacter, but not as module-level functions
    found += ["charring.%s" % name for name in ("specialize_q1", "is_weyl_invariant")
              if name in _top_level_names(trees["charring"])]
    coset = next(node for node in trees["fock"].body
                 if isinstance(node, ast.ClassDef) and node.name == "LatticeCoset")
    found += ["fock.LatticeCoset.%s" % node.name for node in coset.body
              if isinstance(node, ast.FunctionDef) and node.name == "key"]
    assert found == []


def test_package_import_loads_no_dataclasses_inspect_or_argparse():
    # a cold start pays only for what the verdicts use: the records are
    # hand-written or NamedTuples, and the parser imports argparse itself
    src = str(pathlib.Path(affchar.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import affchar.cli; print(' '.join(sorted(set(sys.modules) - before)))" % src)
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True)
    assert {"dataclasses", "inspect", "argparse"} & set(out.stdout.split()) == set()
