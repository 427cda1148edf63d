"""Binding-only modules kept for the benchmark's layer tracer.

:mod:`repro.perf.engine` and :mod:`repro.perf.auxcache` hold the names
``perfbench/tracer.py`` binds; the solver does not import this package.
Each cancellation iteration builds its residual with
:func:`repro.core.residual.build_residual` and each sweep level its
layered graph with :func:`repro.core.auxgraph.build_aux_shifted`.
"""
