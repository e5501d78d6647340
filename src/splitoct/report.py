"""Structured pass/fail records for identity sweeps."""
from __future__ import annotations

MAX_DETAILS = 10
TOLERANCE = 1e-12   # every float comparison's tolerance, relative to the data


class VerificationReport:
    """Outcome of one identity sweep.

    ``failures`` is a count; the first few offending cases are kept in
    ``failure_details`` so a failing sweep names its witnesses.  ``exact``
    distinguishes sweeps done in rational arithmetic (max_residual is then
    exactly 0.0 or a count-free residual has no meaning) from float sweeps.
    """

    def __init__(self, name: str, exact: bool = True, meta: dict | None = None):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.failure_details = []
        self.max_residual = 0.0
        self.exact = exact
        self.meta = {} if meta is None else meta

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record_case(self, ok: bool, detail="", residual: float = 0.0) -> None:
        """Record one case, named if it fails by ``detail``: a string, or a
        callable of no argument, called only when a failing case is kept."""
        self.cases += 1
        if residual > self.max_residual:
            self.max_residual = residual
        if not ok:
            self.failures += 1
            if len(self.failure_details) < MAX_DETAILS:
                self.failure_details.append(detail() if callable(detail) else detail)

    def record_mask(self, ok, label, residual=None) -> None:
        """Record one case per entry of the boolean array ``ok``, in C order:
        the passing entries in bulk, each failing one through record_case,
        named by ``label(*index)`` only if it is kept.  ``residual``, of the
        same shape, raises max_residual as record_case does (NaN never does)."""
        import numpy as np
        bad = np.argwhere(~ok).tolist()
        self.cases += ok.size - len(bad)
        for index in bad:
            self.record_case(False, lambda index=index: label(*index))
        if residual is not None and residual.size:
            top = float(np.fmax.reduce(residual, axis=None))
            if top > self.max_residual:
                self.max_residual = top

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "failure_details": list(self.failure_details),
            "max_residual": self.max_residual,
            "exact": self.exact,
            "passed": self.passed,
            "meta": dict(self.meta),
        }
