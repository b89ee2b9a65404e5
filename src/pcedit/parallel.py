"""Empty module kept as an import target for the benchmark tracer.

Box containment runs in one vectorised pass and no thread pool exists;
``--threads`` is accepted for compatibility and has no effect.
``perfbench/tracer.py`` still imports this module to hook a pool, so the
file goes when that hook goes (ROADMAP item 2).
"""
