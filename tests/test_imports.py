"""Every module of the package, the tests and the demos references each
name it imports, every private function of the package is referenced
inside the package, and the package's public names are pinned.  Stdlib
ast scans; __future__ imports and the re-exports of __init__.py are exempt
from the first."""

import ast
from pathlib import Path

import pytest

import heckeforge

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/heckeforge", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py")
               if path.name != "__init__.py")


def unused_imports(source):
    """The names that source imports and never references, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names
                         if alias.name != "*"}
    # an attribute chain a.b.c starts with the Name a
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom math import gcd, pi as tau\n"
              "print(os.path.sep, tau)\n")
    assert unused_imports(source) == ["gcd", "sys"]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources):
    """The private (non-dunder) functions and methods defined in sources
    that no source references by name, attribute, import or string
    constant (the CLI names its handlers by string), sorted."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.add(node.value)
    return sorted(defined - used)


def test_scan_flags_an_unreferenced_private_function():
    module = ("def _used():\n    return 1\n"
              "def _unused():\n    return _used()\n"
              "class A:\n    def __init__(self):\n        self._m()\n"
              "    def _m(self):\n        pass\n"
              "    def _dead(self):\n        pass\n")
    other = ("from m import _imported\ndef _imported():\n    pass\n"
             "def _by_string():\n    pass\nHANDLER = '_by_string'\n")
    assert unreferenced_private_functions([module, other]) == [
        "_dead", "_unused"]


def test_every_private_function_is_referenced_in_the_package():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src/heckeforge").glob("*.py"))]
    assert unreferenced_private_functions(sources) == []


# the public names of the package, module by module; a removal or an
# addition changes this set on purpose
PUBLIC_NAMES = {
    # ffield
    "FieldError", "FqContext", "FqElement", "SignValue", "sgn",
    "square_root", "adjoin_zeta",
    # quadspace
    "QuadSpaceError", "QuadraticSpace", "OrthogonalMap", "SquareClass",
    "TRIVIAL", "NONSQUARE", "reflection", "factor_into_reflections",
    "spinor_norm", "sgn_spinor", "orthogonal_sum", "block_embed",
    "random_orthogonal",
    # gradedorth
    "GradedError", "GradedQuadraticSpace", "Mu4Value", "zeta_scaling",
    "glplus_membership", "otilde_membership", "extended_sn",
    # cyclo
    "CycloError", "CycloContext", "CyclotomicNumber", "CycloMatrix",
    "cyclotomic_polynomial",
    # sympweil
    "SympError", "SymplecticSpace", "HeisenbergElement",
    "CentralCharacterChoice", "HeisenbergRep", "WeilSL2", "projective_weil",
    "det_sign_character", "isotropic_reduction", "graded_symplectic_split",
    "induction_identity_check", "sl2_elements",
    # heckealg
    "HeckeError", "CoxeterSystem", "GroupWord", "ParameterFunction",
    "LaurentPoly", "HeckeAlgebra", "HeckeElement",
    "TwistedGroupAlgebraContext", "twisted_mul", "SemidirectAlgebra",
    "length_zero_subgroup", "support_preserving_map_check",
    # sp4oracle
    "OracleError", "TruncContext", "convolve_s", "convolve_e",
    "welldefinedness_check", "quadratic_relation",
}


def test_public_names_are_pinned():
    """__init__.py re-exports exactly PUBLIC_NAMES, and each resolves."""
    tree = ast.parse((ROOT / "src/heckeforge/__init__.py").read_text(
        encoding="utf-8"))
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(exported) == len(set(exported))
    assert set(exported) == PUBLIC_NAMES
    assert all(hasattr(heckeforge, name) for name in PUBLIC_NAMES)
