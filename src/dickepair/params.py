"""Physical parameters of the driven, collectively damped qubit ensemble.

All rates are measured in units of the single-qubit decay constant gamma,
which is the unit and not a parameter: every formula is written with
gamma = 1, and the state at (Omega, Delta, delta, gamma) is the one at
(Omega/gamma, Delta/gamma, delta/gamma). The natural drive axis for
collective effects is the pump parameter 2*rabi / n_qubits. A
:class:`ParamBatch` holds P operating points of one ensemble as arrays; the
evaluation pipeline runs on batches, and a single :class:`SystemParams` is
the batch of one.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class SystemParams:
    """Inputs defining one operating point, every rate in units of gamma.

    Parameters
    ----------
    n_qubits : int
        Number of two-level emitters, N >= 1 (pair quantities need N >= 2);
        any integral type but ``bool``, stored as a Python int.
    rabi : float
        Drive amplitude Omega >= 0. Zero is allowed here but rejected by the
        steady-state formulas, which are singular at zero drive.
    detuning : float
        Emitter-drive detuning Delta = omega_0 - omega_L.
    dipole_shift : float
        Pair dipole-dipole shift delta, identical for all pairs.
    """

    n_qubits: int
    rabi: float
    detuning: float = 0.0
    dipole_shift: float = 0.0

    def __post_init__(self):
        n = self.n_qubits
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {n!r}")
        # the exact row sums step big integers in N, which a numpy integer overflows
        object.__setattr__(self, "n_qubits", int(n))
        if not (self.rabi >= 0.0 and math.isfinite(self.rabi)):
            raise ValueError(f"rabi must be finite and >= 0, got {self.rabi!r}")
        for name in ("detuning", "dipole_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def pump(self) -> float:
        """Scaled drive 2*Omega/N."""
        return 2.0 * self.rabi / self.n_qubits

    def with_pump(self, pump: float) -> "SystemParams":
        """Copy of these parameters with rabi set from a pump value.

        Raises ValueError naming the pump when pump is negative or not finite,
        or when rabi = pump * N / 2 overflows.
        """
        rabi = pump * self.n_qubits / 2.0
        if not (rabi >= 0.0 and math.isfinite(rabi)):
            raise ValueError(f"pump must be >= 0 with rabi = pump * N / 2 finite, got {pump!r}")
        return replace(self, rabi=rabi)


@dataclass(frozen=True, eq=False)
class ParamBatch:
    """P operating points sharing ``n_qubits``.

    ``rabi``, ``detuning`` and ``dipole_shift`` are real numpy arrays of
    shape (P,); they (row by row) and ``n_qubits`` are taken as
    :class:`SystemParams` takes them.
    """

    n_qubits: int
    rabi: np.ndarray
    detuning: np.ndarray
    dipole_shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", SystemParams(self.n_qubits, rabi=0.0).n_qubits)
        for name in ("rabi", "detuning", "dipole_shift"):
            values = getattr(self, name)
            if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
                got = values.dtype if isinstance(values, np.ndarray) else type(values).__name__
                raise ValueError(f"{name} must be a real numpy array, got {got}")
            if values.shape != (len(self.rabi),):
                raise ValueError(f"{name} must be a 1-D array as long as rabi")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if (self.rabi < 0.0).any():
            raise ValueError(f"rabi must be >= 0, got {float(self.rabi.min())!r}")

    @classmethod
    def _unchecked(cls, n_qubits, rabi, detuning, dipole_shift) -> "ParamBatch":
        """A batch of values validated already; skips the checks of __post_init__."""
        batch = object.__new__(cls)
        batch.__dict__.update(n_qubits=n_qubits, rabi=rabi, detuning=detuning,
                              dipole_shift=dipole_shift)
        return batch

    @classmethod
    def of(cls, params: SystemParams) -> "ParamBatch":
        """The batch of one operating point."""
        return cls._unchecked(params.n_qubits, np.array([params.rabi], dtype=float),
                              np.array([params.detuning], dtype=float),
                              np.array([params.dipole_shift], dtype=float))

    def __len__(self) -> int:
        return len(self.rabi)

    def point(self, i: int) -> SystemParams:
        """Row i as a :class:`SystemParams`; ``ParamBatch.of(p).point(0) == p``."""
        return SystemParams(self.n_qubits, rabi=float(self.rabi[i]),
                            detuning=float(self.detuning[i]),
                            dipole_shift=float(self.dipole_shift[i]))

    def rows(self, start: int, stop: int) -> "ParamBatch":
        """The points start..stop-1 as a batch (views, no copies)."""
        if start == 0 and stop >= len(self):
            return self
        return ParamBatch._unchecked(self.n_qubits, self.rabi[start:stop],
                                     self.detuning[start:stop],
                                     self.dipole_shift[start:stop])


@dataclass(frozen=True)
class DerivedParams:
    """Complex drive parameters entering the closed-form steady state."""

    alpha: complex
    beta: complex


def derive_params(params: SystemParams | ParamBatch) -> DerivedParams:
    """Derived complex parameters for a valid operating point or batch.

    alpha = i*Omega / (1 + i*delta), beta = i*(Delta + delta) / (1 + i*delta);
    for a batch each is a (P,) array.
    The denominator 1 + i*delta (gamma + i*delta at gamma = 1) never vanishes.
    """
    denom = 1.0 + 1j * params.dipole_shift
    return DerivedParams(
        alpha=1j * params.rabi / denom,
        beta=1j * (params.detuning + params.dipole_shift) / denom,
    )
