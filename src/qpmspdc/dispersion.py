"""Refractive-index models for the nonlinear crystal.

The default crystal is KTP with the Sellmeier fits and thermo-optic
dispersion of Kato & Takaoka, Appl. Opt. 41, 5040 (2002). Any model with the
same evaluate-by-(wavelength, axis, temperature) surface can be substituted,
including tables loaded from plain text, so other published coefficient sets
drop in without touching the phase-matching code.

Models refuse to extrapolate: a wavelength outside the declared validity
window raises WavelengthWindowError instead of returning a number.
"""
from __future__ import annotations

import math
from bisect import bisect_left

from .core import AXES
from .errors import ValidationError, WavelengthWindowError


class IndexModel:
    """Evaluatable refractive-index model.

    Subclasses implement ``_evaluate``; the public ``index`` wraps it with the
    validity-window check and the 1 <= n <= 10 sanity check (vacuum-like
    constant test models may sit exactly at 1).
    """

    model_id: str = "abstract"

    def window(self, axis: str) -> tuple[float, float]:
        """Validity window [lambda_min, lambda_max] in metres for an axis."""
        raise NotImplementedError

    def _evaluate(self, wavelength: float, axis: str, temperature_c: float) -> float:
        raise NotImplementedError

    def index(self, wavelength: float, axis: str, temperature_c: float) -> float:
        if axis not in AXES:
            raise ValidationError(f"axis must be one of {AXES}, got {axis!r}")
        if not (math.isfinite(wavelength) and wavelength > 0):
            raise ValidationError(f"wavelength must be positive, got {wavelength!r}")
        lo, hi = self.window(axis)
        if not (lo <= wavelength <= hi):
            raise WavelengthWindowError(wavelength, (lo, hi), self.model_id)
        n = self._evaluate(wavelength, axis, temperature_c)
        # No transparent medium has an index near 10; a larger value is a fit
        # driven far outside its range, and it can overflow n w / c downstream.
        if not (math.isfinite(n) and 1.0 <= n <= 10.0):
            raise ValidationError(
                f"index model '{self.model_id}' produced non-physical n = {n!r} "
                f"at {wavelength * 1e9:.2f} nm"
            )
        return n


# Sellmeier fits n^2 = A + B/(l^2 - C) + D/(l^2 - E), l in micrometres,
# with thermo-optic dn/dT = (c3/l^3 + c2/l^2 + c1/l + c0) * 1e-6 / K
# referenced to 25 C. Kato & Takaoka, Appl. Opt. 41, 5040 (2002).
_KTP_SELLMEIER = {
    "x": (3.29100, 0.04140, 0.03978, 9.35522, 31.45571),
    "y": (3.45018, 0.04341, 0.04597, 16.98825, 39.43799),
    "z": (4.59423, 0.06206, 0.04763, 110.80672, 86.12171),
}
_KTP_THERMO_OPTIC = {
    "x": (1.427, -4.735, 8.711, 0.952),
    "y": (4.269, -14.761, 21.232, -2.113),
    "z": (12.415, -44.414, 59.129, -12.101),
}
# Published fit ranges: 0.43-3.54 um (Sellmeier), 0.43-1.58 um (thermo-optic).
# The lower edge is relaxed to 0.40 um so a 413 nm pump is evaluable; the
# nearest fit resonance sits at 0.218 um, far below, and the extension stays
# well inside the smooth branch of the fit.
_KTP_WINDOW = (0.40e-6, 1.58e-6)


class KtpIndexModel(IndexModel):
    """KTP (potassium titanyl phosphate), all three principal axes.

    Temperature enters through the published thermo-optic polynomial, linear
    in (T - 25 C).
    """

    model_id = "ktp-kato-takaoka-2002"

    def window(self, axis: str) -> tuple[float, float]:
        return _KTP_WINDOW

    def _evaluate(self, wavelength: float, axis: str, temperature_c: float) -> float:
        lum = wavelength * 1e6
        a, b, c, d, e = _KTP_SELLMEIER[axis]
        n25 = math.sqrt(a + b / (lum**2 - c) + d / (lum**2 - e))
        c3, c2, c1, c0 = _KTP_THERMO_OPTIC[axis]
        dndt = (c3 / lum**3 + c2 / lum**2 + c1 / lum + c0) * 1e-6
        return n25 + dndt * (temperature_c - 25.0)


class ConstantIndexModel(IndexModel):
    """Dispersion-free test model: the same index everywhere.

    n = 1 is allowed so vacuum-like analytic checks work.
    """

    def __init__(self, value: float):
        if not (math.isfinite(value) and value >= 1.0):
            raise ValidationError(f"constant index must be >= 1, got {value!r}")
        self.value = float(value)
        self.model_id = f"constant-{value:g}"

    def window(self, axis: str) -> tuple[float, float]:
        """Every wavelength from 1 nm to 1 m."""
        return (1e-9, 1.0)

    def _evaluate(self, wavelength: float, axis: str, temperature_c: float) -> float:
        return self.value


class TabulatedIndexModel(IndexModel):
    """Linear interpolation of tabulated (wavelength, axis, index) records.

    Tables are temperature-blind: whatever temperature the table was measured
    at is what you get. Interpolation never extrapolates; the per-axis window
    is exactly the tabulated wavelength span.
    """

    def __init__(self, tables: dict[str, tuple[list[float], list[float]]],
                 model_id: str = "tabulated"):
        if not tables:
            raise ValidationError("tabulated model needs at least one axis")
        self.model_id = model_id
        self._tables: dict[str, tuple[list[float], list[float]]] = {}
        for axis, (wavelengths, values) in tables.items():
            if axis not in AXES:
                raise ValidationError(f"axis must be one of {AXES}, got {axis!r}")
            if len(wavelengths) != len(values) or len(wavelengths) < 2:
                raise ValidationError(f"axis {axis!r} needs >= 2 (wavelength, index) records")
            pairs = sorted(zip(wavelengths, values))
            ws = [float(w) for w, _ in pairs]
            ns = [float(n) for _, n in pairs]
            for i, (w, n) in enumerate(zip(ws, ns)):
                if not (math.isfinite(w) and w > 0):
                    raise ValidationError(f"axis {axis!r}: bad wavelength {w!r}")
                if not (math.isfinite(n) and n > 1.0):
                    raise ValidationError(f"axis {axis!r}: tabulated index must be > 1, got {n!r}")
                if i and w == ws[i - 1]:
                    raise ValidationError(f"axis {axis!r}: duplicate wavelength {w!r}")
            self._tables[axis] = (ws, ns)

    @classmethod
    def from_file(cls, path) -> "TabulatedIndexModel":
        """Load records from plain text: one ``wavelength_nm axis index`` per line.

        Blank lines and lines starting with ``#`` are ignored.
        """
        tables: dict[str, tuple[list[float], list[float]]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValidationError(
                        f"{path}:{lineno}: expected 'wavelength_nm axis index', got {line!r}")
                try:
                    wavelength = float(parts[0]) * 1e-9
                    value = float(parts[2])
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from exc
                axis = parts[1]
                ws, ns = tables.setdefault(axis, ([], []))
                ws.append(wavelength)
                ns.append(value)
        return cls(tables, model_id=f"table:{path}")

    def window(self, axis: str) -> tuple[float, float]:
        if axis not in self._tables:
            raise ValidationError(
                f"axis {axis!r} not present in tabulated model '{self.model_id}'")
        ws, _ = self._tables[axis]
        return (ws[0], ws[-1])

    def _evaluate(self, wavelength: float, axis: str, temperature_c: float) -> float:
        ws, ns = self._tables[axis]
        j = bisect_left(ws, wavelength)
        if j < len(ws) and ws[j] == wavelength:
            return ns[j]
        lo, hi = j - 1, j
        t = (wavelength - ws[lo]) / (ws[hi] - ws[lo])
        return ns[lo] + t * (ns[hi] - ns[lo])
