"""Named end-to-end configurations reproducing the worked examples.

Every free choice (defining polynomial, class index, quadric kind) is
pinned so that repeated runs produce byte-identical reports.
"""
from __future__ import annotations

from .field import FieldSpec, build_tower
from .pds import FieldSubset, build_cyclotomic_subset, quadric_subset


def _example_31() -> FieldSubset:
    return build_cyclotomic_subset(build_tower(FieldSpec(p=2, e=2, m=4)), 5, [1, 2, 3, 4])


def _row1() -> FieldSubset:
    return build_cyclotomic_subset(build_tower(FieldSpec(p=3, e=1, m=5)), 11, [0])


def _row1_complement() -> FieldSubset:
    return _row1().complement()


def _example_33(kind: str = "hyperbolic", p: int = 3, m: int = 4) -> FieldSubset:
    return quadric_subset(build_tower(FieldSpec(p=p, e=1, m=m)), kind=kind)[0]


def _row3() -> FieldSubset:
    return build_cyclotomic_subset(build_tower(FieldSpec(p=3, e=1, m=12)), 35, [0])


RECIPES = {
    "example-3.1": _example_31,
    "example-3.2": _row1,
    "table-2-row-1": _row1,
    "example-3.2-complement": _row1_complement,
    "example-3.3": _example_33,
    "example-3.3-hyperbolic": lambda: _example_33("hyperbolic"),
    "example-3.3-elliptic": lambda: _example_33("elliptic"),
    "table-2-row-3": _row3,
}


def build_recipe(name: str, kind: str | None = None, p: int | None = None,
                 m: int | None = None) -> FieldSubset:
    if name not in RECIPES:
        raise ValueError(f"unknown recipe {name!r}; available: {', '.join(sorted(RECIPES))}")
    if name == "example-3.3":
        return _example_33(kind or "hyperbolic", p or 3, m or 4)
    return RECIPES[name]()
