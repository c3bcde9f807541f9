"""Hull decisions (Section 5.1.1) on paper and generated programs.

Each task's ``plan.hull_decisions`` -- the ``NconvUn``/``NOrig`` Ehrhart
polynomials, the accept/reject verdict and the "chambered" bails -- is
recorded as a literal.  Together the cases cover accepted hulls
(``1/2*B^2 + 1/2*B``), a rejected hull (gen53: ``n + 6`` against
``n + 1``) and chambered bails (gen19, gen90), so a change to the
integer-point counter that moves any decision fails here.  The cost
of counting ``NOrig`` is pinned too: its Fourier–Motzkin projections.
"""

import pytest

import repro
from repro.analysis.memory_access import AccessAnalysis
from repro.fuzz.generator import generate_program
from repro.polyhedral import Polyhedron, union_count_polynomial
from repro.transform.access_phase.affine import build_classes
from repro.transform.access_phase.forms import SymbolTable
from repro.workloads import workload_by_name


def _single(base):
    return {"base": base, "hull": True, "reason": "single access"}


def _chambered(base):
    return {"base": base, "hull": False,
            "reason": "count is chambered; hull test inconclusive"}


def _counted(base, hull, n_conv, n_orig):
    return {"base": base, "hull": hull, "NconvUn": n_conv, "NOrig": n_orig}


PINS = {
    "lu": {
        "lu_diag": [_counted("A", True, "B^2", "B^2")],
        "lu_inner": [_single("A"), _single("A"), _single("A")],
        "lu_perim": [_counted("A", True, "9", "9"), _single("A")],
    },
    "cholesky": {
        "chol_diag": [
            _counted("A", True, "1/2*B^2 + 1/2*B", "1/2*B^2 + 1/2*B"),
        ],
        "chol_panel": [
            _counted("A", True, "9", "9"),
            _counted("A", True, "1/2*B^2 + 1/2*B", "1/2*B^2 + 1/2*B"),
        ],
        "chol_update": [_single("A"), _single("A"), _single("A")],
    },
    "gen1": {
        "fuzz_task": [
            _counted("A", True, "7", "7"),
            _counted("B", True, "7", "7"),
            _single("I"),
        ],
    },
    "gen19": {
        "fuzz_task": [_chambered("A"), _chambered("B")],
    },
    "gen53": {
        "fuzz_task": [
            _counted("I", False, "5", "2"),
            _counted("A", False, "n + 6", "n + 1"),
        ],
    },
    "gen86": {
        "fuzz_task": [
            _counted("I", False, "3", "2"),
            _counted("A", True, "2", "2"),
            _counted("B", True, "2", "2"),
        ],
    },
    "gen90": {
        "fuzz_task": [
            _chambered("B"),
            _counted("I", True, "2", "2"),
            _single("A"),
        ],
    },
}


def _source(name):
    if name.startswith("gen"):
        return generate_program(int(name[3:])).source
    return workload_by_name(name).source()


@pytest.mark.parametrize("name", sorted(PINS))
def test_hull_decisions_pinned(name):
    module = repro.compile_source(_source(name), name=name)
    repro.optimize_module(module)
    results = repro.generate_module_access_phases(module)
    assert {task: r.method for task, r in results.items()} == {
        task: "affine" for task in PINS[name]
    }
    assert {
        task: r.plan.hull_decisions for task, r in results.items()
    } == PINS[name]


def test_norig_projects_each_polyhedron_once(monkeypatch):
    """lu_diag's five-access class: every sample point of the NOrig fit
    reuses each polyhedron's FM levels, so at most ``len(dims)``
    eliminations happen per polyhedron."""
    module = repro.compile_source(_source("lu"), name="lu")
    repro.optimize_module(module)
    analysis = AccessAnalysis(module.function("lu_diag"))
    (cls,) = build_classes(analysis, SymbolTable())
    dims = cls.polyhedra[0].dims
    assert len(cls.polyhedra) == 5

    eliminated = []
    eliminate = Polyhedron.eliminate

    def counting(self, sym):
        eliminated.append(sym)
        return eliminate(self, sym)

    monkeypatch.setattr(Polyhedron, "eliminate", counting)
    n_orig = union_count_polynomial(cls.polyhedra, degree=len(dims))
    assert repr(n_orig) == "B^2"
    assert len(eliminated) <= len(dims) * len(cls.polyhedra)
