"""End-to-end benchmark of the reduced-precision matrix-profile system.

``run.py`` is the command; ``worker.py`` runs one workload in a fresh
process; ``workloads.py`` defines the four workloads and their checks;
``trace.py`` is the span tracer of the traced run; ``compare.py`` applies
the pairing rule to two result files.  See ``README.md``.
"""
