"""Model parameters for the emitter + bimodal cavity system.

All rates and detunings share a single user-chosen frequency unit.  The
defaults follow the convention gamma_a = 1 (MHz), so e.g. kappa = 40 means
"forty spontaneous-emission linewidths".
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """All rates and detunings of the driven cavity-emitter model.

    delta      : cavity detuning from the drive (omega - omega_d)
    delta_a    : emitter detuning from the drive (omega_a - omega_d)
    j_coupling : scatterer-induced CCW <-> CW mode coupling J >= 0
    g_a, g_b   : emitter coupling to the CCW / CW mode
    drive      : coherent drive amplitude on the CCW mode
    kappa      : total cavity decay rate (> 0)
    gamma_a    : emitter spontaneous-emission rate
    gamma_p    : emitter pure-dephasing rate
    """

    kappa: float
    delta: float = 0.0
    delta_a: float = 0.0
    j_coupling: float = 0.0
    g_a: float = 0.0
    g_b: float = 0.0
    drive: float = 0.0
    gamma_a: float = 0.0
    gamma_p: float = 0.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            check_field(field.name, getattr(self, field.name))

    @property
    def gamma_total(self) -> float:
        """Total emitter linewidth gamma_a + 2*gamma_p."""
        return self.gamma_a + 2.0 * self.gamma_p

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


def check_field(name: str, value: float) -> None:
    """Raise ValueError unless value is allowed for the SystemParams field name."""
    if name == "kappa" and not value > 0:
        raise ValueError(f"kappa must be positive, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0 and name not in ("delta", "delta_a"):
        raise ValueError(f"{name} must be non-negative, got {value}")


def reference_baseline(**overrides) -> SystemParams:
    """Baseline parameter set used throughout the reference scans.

    kappa = 40, g_a = g_b = 20, drive = 1, gamma_a = 1 (units of gamma_a).
    """
    base = dict(kappa=40.0, g_a=20.0, g_b=20.0, drive=1.0, gamma_a=1.0)
    base.update(overrides)
    return SystemParams(**base)
