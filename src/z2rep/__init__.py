"""Exact-arithmetic engine for the Z2xZ2-graded extension of osp(1|2).

Subpackages: graded_algebra (bracket table and axiom checks), cartan_modules
(finite-dimensional Cartan-pair modules), verma (lowest-weight Verma modules
and generator actions), singular_solver (null spaces and closed forms),
submodule_quotient (maximal submodule, quotient dimensions and the
classification verdict), cli (command-line front end).  The paper's
independent routes that only cross-check these (the recurrences, the chi11
decomposition, the spanning words of W and the invariant-subspace search) and
the tests' reference linear algebra live under tests/, in paper_routes.py and
reference.py.

The supported Python API is the names exported here, together with
`singular_solver.find_singular` and `submodule_quotient.classify_module`.
"""

from .graded_algebra import (AD_WEIGHT, DEGREE, GENERATORS, Element,
                             STRUCTURE_TABLE, bracket, degree_add, degree_dot,
                             verify_axioms)
from .verma import Ket, VermaModule, Vector, act, act_element, enumerate_level

__all__ = [
    "AD_WEIGHT", "DEGREE", "GENERATORS", "Element", "STRUCTURE_TABLE",
    "bracket", "degree_add", "degree_dot", "verify_axioms",
    "Ket", "VermaModule", "Vector", "act", "act_element", "enumerate_level",
]

__version__ = "0.1.0"
