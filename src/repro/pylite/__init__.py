"""Pylite: the dynamic-language (CPython-like) frontend (paper §5.2/§6.4)."""

from repro.pylite.experiment import ExperimentResult, run_experiment
from repro.pylite.interp import EnclosureFn, Interpreter, PyFunc
from repro.pylite.machine import PyMachine, PyModule

__all__ = [
    "ExperimentResult", "run_experiment",
    "EnclosureFn", "Interpreter", "PyFunc",
    "PyMachine", "PyModule",
]
