"""The package namespace: `rotinv` re-exports each module's `__all__`."""

import re
from pathlib import Path

import rotinv
from rotinv import expr, linalg, objectivity, rotation

README = Path(__file__).resolve().parent.parent / "README.md"

# The top-level names of rotinv 0.1.0 before its namespace was derived
# from the modules; each must stay the very object its module defines.
PINNED = {
    linalg: """Vector SquareMatrix DimensionMismatchError DependentPrefixError
        NotSymmetricError determinant gram_schmidt_complete symmetric_eigen_extremes""",
    rotation: """RotationMatrix RotationError NotOrthogonalError WrongDeterminantError
        ReflectionError NonUnitVectorError NoProperRotationError validate_rotation
        rotation_2d rotation_mapping haar_sample""",
    objectivity: """Verdict Method Witness ObjectivityReport RadialSet RadialProfile
        QuadraticForm NonFiniteValueError ProfileEvaluationError radial_membership
        sample_radius radial_sampler radial_set_closure_check finite_set_objectivity
        extract_profile test_function_objectivity symmetric_part quadratic_objectivity
        quadratic_vs_montecarlo_oracle""",
    expr: """Expression EvalContext ExpressionError LexicalError ParseError
        UnknownFunctionError ArityError EvaluationError DomainError
        NonFiniteResultError UnboundVariableError parse evaluate unparse""",
}


def test_all_is_derived_from_the_modules():
    derived = ["__version__", *linalg.__all__, *rotation.__all__, *objectivity.__all__, *expr.__all__]
    assert rotinv.__all__ == derived
    assert len(set(rotinv.__all__)) == len(rotinv.__all__)
    assert all(hasattr(rotinv, name) for name in rotinv.__all__)
    # Tolerance constants such as rotation.DEFAULT_TOL stay under their module.
    assert not any(name.endswith("_TOL") for name in rotinv.__all__)


def test_earlier_top_level_names_are_the_module_objects():
    pinned = [(module, name) for module, names in PINNED.items() for name in names.split()]
    assert len(pinned) + 1 == 53  # and __version__
    assert rotinv.__version__ == "0.1.0"
    for module, name in pinned:
        assert getattr(rotinv, name) is getattr(module, name), name


def test_readme_library_example_imports_resolve():
    block = re.search(r"from rotinv import \(([^)]*)\)", README.read_text()).group(1)
    names = [n.strip() for n in block.split(",") if n.strip()]
    assert names and all(hasattr(rotinv, n) and n in rotinv.__all__ for n in names)
