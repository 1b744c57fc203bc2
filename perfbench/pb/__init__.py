"""Support package of the repository benchmark (``perfbench/run.py``).

Everything here is benchmark-side code: input generation and digests,
the load generators, the output checks and the span recorder that times
calls into the program's layers from outside.  Nothing under ``src/`` is
modified; the traced run patches public entry points at run time and
restores them afterwards.
"""
