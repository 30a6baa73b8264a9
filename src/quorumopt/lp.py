"""The one HiGHS call and its status mapping.

``quorumopt.optimize._optimal`` builds the strategy LP as dense arrays and
``quorumopt.optimize._limit_excess`` the phase-1 LP of one under limits;
each hands its LP to :func:`linprog`, and ``_optimal`` maps the status it
returns to a strategy, ``Infeasible`` or ``SolverFailure``. This is the
only module that touches HiGHS, as ``tests/test_source.py`` checks. It
drives the binding that scipy ships (``scipy.optimize._highspy._core``),
which is private to scipy, with the options
``scipy.optimize.linprog(method="highs")`` sets, but without that wrapper's
per-call option checks, input cleaning and result packaging.
:func:`linprog` is the one seam between the package and HiGHS, with
scipy's status codes, so that tests and tracers can replace or wrap it. It
departs from scipy in one place: a model that HiGHS refuses, at
``passModel`` (a coefficient of magnitude 1e15 or more) or as
``kModelError``, is a solver failure (status 4) here, where scipy reports
it as infeasible (status 2); status 2 means that HiGHS proved the model
infeasible. So is a model that ``passModel`` takes with a warning: HiGHS
has then altered it, dropping each coefficient of magnitude 1e-9 or less
(``small_matrix_value``), and would solve another LP than the one asked,
whose optimum can be a fraction of the true one; the message gives the
smallest and largest nonzero magnitude of the model. A ``MemoryError``
raised while HiGHS takes or solves a model is a solver failure too, whose
message gives the model's size. Required
accuracy: feasibility violation <= 1e-9, objective gap <= 1e-6.

Every solve runs on one kept HiGHS instance, configured once: a solve
passes it the next model, which clears its solver state, and hands back
HiGHS's final basis; the x, status, iteration count and basis are those of
a solve on a fresh instance. A model of more than ``_KEEP_NNZ`` nonzeros
drops the instance when its solve returns, and the next solve makes a new
one, so that the buffers of a large model are not held. The process
shares that one instance, so no two threads may solve at once.

Given the basis of an earlier LP of the same shape, as
:func:`quorumopt.optimize.capacity_curve` hands each point the previous
point's, a solve is warm: HiGHS skips presolve and starts the simplex from
that basis. A warm solve that does not end optimal with a checked x is
solved again cold, so no status depends on the warm start. A solve without
a basis is the cold one described above.

Importing this module loads the binding's extension file by itself and
registers it in ``sys.modules`` under its own name, without importing
``scipy.optimize``: that package's ``__init__`` imports scipy.linalg,
scipy.sparse and more, none of which quorumopt uses, in about 0.6 s, where
the one file loads in about 10 ms. A later ``import scipy.optimize`` reuses
the same module.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path
from types import SimpleNamespace

import numpy as np

_BINDING = "scipy.optimize._highspy._core"


def _load_binding() -> None:
    """Put the binding into ``sys.modules`` from its extension file, so that
    the import below takes it from there and runs no ``__init__`` of its
    parent packages. A binding already imported is kept."""
    if _BINDING in sys.modules:
        return
    package = find_spec("scipy")
    if package is None:
        raise ModuleNotFoundError("quorumopt needs scipy for its HiGHS binding", name="scipy")
    folder = Path(package.submodule_search_locations[0], "optimize", "_highspy")
    spec = FileFinder(str(folder), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_BINDING)
    if spec is None:
        import scipy

        raise ImportError(f"scipy {scipy.__version__} has no {_BINDING} extension in {folder}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_BINDING] = module


_load_binding()
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsModelStatus,
    HighsOptions,
    HighsStatus,
    MatrixFormat,
    _Highs,
    kHighsInf,
    kHighsDebugLevelNone,
    simplex_constants,
)

# Each row and bound of a returned x holds within this, absolutely.
FEASIBILITY_TOL = 1e-9
# An "optimal" x that misses a bound or a row by more than this is a failure;
# scipy's linprog checks its HiGHS results with the same margin.
_CHECK_TOL = np.sqrt(FEASIBILITY_TOL) * 10


def _highs_options() -> HighsOptions:
    """The options linprog(method="highs") passes HiGHS, with both
    feasibility tolerances at FEASIBILITY_TOL."""
    options = HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = FEASIBILITY_TOL
    options.dual_feasibility_tolerance = FEASIBILITY_TOL
    return options


_HIGHS_OPTIONS = _highs_options()
# The HiGHS instance that every solve runs on, made on first use, and the
# model size in nonzeros above which a solve drops it, so that no buffers
# sized to a large model are held. HiGHS keeps buffers as large as the
# largest model it has solved: dropping above 1,024 nonzeros kept peak
# memory within 0.2 MB of a fresh instance per solve, on strategy LPs of
# 3-10 nodes (median 70 nonzeros, 7% above 1,024) and of 11-16 nodes (1,316
# to 27,470), where 4,096 held 1 MB more.
_kept = None
_KEEP_NNZ = 1024


def linprog(c, *, A_ub, b_ub, A_eq, b_eq, bounds, basis=None):
    """Minimize c.x subject to A_ub.x <= b_ub, A_eq.x = b_eq and ``bounds``
    with HiGHS, configured by ``_HIGHS_OPTIONS``. Every argument is a float
    array; ``bounds`` is (n, 2), with ``np.inf`` for no bound.

    Returns an object with ``status`` (scipy's codes: 0 optimal, 2
    infeasible, 4 any other failure, running out of memory or a model that
    HiGHS altered included),
    ``x`` (None unless HiGHS found an optimum), ``nit`` (simplex
    iterations), ``message`` and ``basis`` (HiGHS's basis at the optimum,
    None when x is). Status 2 is only HiGHS's proof of infeasibility; a
    model it refuses is status 4, where scipy gives 2. An optimal x that
    misses a bound or a row by more than ``_CHECK_TOL`` is reported as
    status 4, as scipy's linprog reports it.

    ``basis``, a basis that HiGHS returned for an LP of the same shape,
    starts the simplex there and skips presolve. A warm solve that does not
    end optimal with a checked x is solved again cold, so the status never
    depends on it; ``nit`` then counts both runs.
    """
    a = np.vstack((A_ub, A_eq))
    # column-major with ascending rows in each column, as csc_array(a) stores it
    cols, rows = np.nonzero(a.T)
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(a)
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    # the binding copies a list into its vectors faster than a numpy array
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(len(c) + 1)).tolist()
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = a[rows, cols].tolist()
    lp.col_cost_ = c.tolist()
    # np.inf is HiGHS's infinity, kHighsInf
    lp.col_lower_, lp.col_upper_ = bounds.T.tolist()
    lp.row_lower_ = [-kHighsInf] * len(b_ub) + b_eq.tolist()
    lp.row_upper_ = b_ub.tolist() + b_eq.tolist()

    result = _run(lp, basis, a, b_ub, b_eq, bounds)
    if basis is not None and result.status != 0:
        cold = _run(lp, None, a, b_ub, b_eq, bounds)
        cold.nit += result.nit
        result = cold
    if len(rows) > _KEEP_NNZ:
        global _kept
        _kept = None
    return result


def _instance() -> _Highs:
    """The kept HiGHS instance, made and configured on first use and after
    a drop."""
    global _kept
    if _kept is None:
        _kept = _Highs()
        _kept.passOptions(_HIGHS_OPTIONS)
    return _kept


def _run(lp: HighsLp, basis, a, b_ub, b_eq, bounds) -> SimpleNamespace:
    """One HiGHS run of ``lp``, whose rows are ``a``, from ``basis`` unless
    it is None, on the kept instance; see :func:`linprog`."""
    global _kept
    highs = _instance()
    try:
        passed = highs.passModel(lp)
        if passed == HighsStatus.kError:
            return SimpleNamespace(status=4, x=None, nit=0, message="HiGHS rejected the model",
                                   basis=None)
        if passed == HighsStatus.kWarning:  # it changed the model, dropping tiny coefficients
            values = np.abs(np.concatenate((a.ravel(), lp.col_cost_, b_ub, b_eq, bounds.ravel())))
            values = values[(values > 0) & (values < np.inf)]
            message = (f"HiGHS altered a model whose nonzero magnitudes span {values.min():.3g} "
                       f"to {values.max():.3g}")
            return SimpleNamespace(status=4, x=None, nit=0, message=message, basis=None)
        if basis is not None:
            highs.setBasis(basis)  # a basis of another shape is refused, and the run starts cold
        highs.run()  # a failed run leaves a model status other than kOptimal
    except MemoryError:
        _kept = None  # its state is unknown; the next solve makes a new instance
        message = (f"HiGHS ran out of memory on a model of {len(a)} rows, {a.shape[1]} columns "
                   f"and {np.count_nonzero(a)} nonzeros")
        return SimpleNamespace(status=4, x=None, nit=0, message=message, basis=None)
    model = highs.getModelStatus()
    info = highs.getInfo()
    nit = info.simplex_iteration_count
    message = (
        f"model_status is {highs.modelStatusToString(model)}; "
        f"primal_status is {highs.solutionStatusToString(info.primal_solution_status)}"
    )
    if model != HighsModelStatus.kOptimal:
        status = 2 if model == HighsModelStatus.kInfeasible else 4
        return SimpleNamespace(status=status, x=None, nit=nit, message=message, basis=None)

    x = np.array(highs.getSolution().col_value)
    row = a @ x
    m = len(b_ub)
    misses = (
        np.isnan(x).any()
        or (x < bounds[:, 0] - _CHECK_TOL).any()
        or (x > bounds[:, 1] + _CHECK_TOL).any()
        or (row[:m] > b_ub + _CHECK_TOL).any()
        or (np.abs(row[m:] - b_eq) > _CHECK_TOL).any()
    )
    if misses:
        message += f", but x misses a bound or row by more than {_CHECK_TOL:.1e}"
    return SimpleNamespace(status=4 if misses else 0, x=x, nit=nit, message=message,
                           basis=highs.getBasis())

