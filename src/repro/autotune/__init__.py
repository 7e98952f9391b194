"""The error-budget planner (Section III-B, Fig. 7).

:meth:`AutoTuner.tune` picks mode, backend, layout and tile count under
a ``target_error`` and explains its choice with
:meth:`TuneDecision.explain`.  ``matrix_profile(auto=True)`` and
``repro plan --explain`` are its entry points.
"""

from .planner import AutoTuner, Candidate, TuneDecision

__all__ = ["AutoTuner", "Candidate", "TuneDecision"]
