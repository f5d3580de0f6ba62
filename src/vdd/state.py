"""Dense state-vector container shared by the exact engine and the oracles,
ConfigError with the shared checks that raise it where a bad value is
found, and the one CSV writer every output table goes through."""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "CapacityError",
    "StateVector",
    "as_amplitudes",
    "index_of_bits",
    "bits_of_index",
]


class ConfigError(ValueError):
    """A configuration value that cannot be run as given, raised by the check
    that finds it; the CLI exits 2 on any of them."""


class CapacityError(ConfigError):
    """A dense 2^n computation was requested beyond its size cap."""


def _check_count(name: str, value, least: int) -> int:
    """value as a Python int, or a ConfigError naming the field unless it is
    an integer >= least; numpy integers pass, bools and floats do not."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ConfigError(f"unknown {name} {value!r}, expected one of {choices}")


def _write_csv(path, header: list[str], rows) -> None:
    """A header line, then one line per row: a float is written as its repr
    and None as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class StateVector:
    """Amplitudes of an n-qubit state.

    amps[index(b)] = <b|psi> with index(b) = sum_l b_l * 2^(n-l), i.e.
    qubit 1 is the most significant bit, so amplitudes are in lexicographic
    bit-string order.
    """

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got shape {self.amps.shape}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def as_amplitudes(v) -> np.ndarray:
    """Accept a StateVector or a plain array and return the amplitude array."""
    return np.asarray(getattr(v, "amps", v), dtype=np.complex128)


def index_of_bits(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def bits_of_index(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - l)) & 1 for l in range(1, n + 1))
