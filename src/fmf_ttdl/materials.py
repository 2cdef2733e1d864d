"""Refractive-index models and piecewise-constant radial fiber profiles.

Fused silica follows the three-term Sellmeier fit of Malitson (1965); the
germania endpoint uses the coefficients of Fleming (1984); both sets are
fixed.  A raised (doped) layer is modelled one of two ways:

``scaled-silica``
    layer index = cladding Sellmeier index times (1 + delta), with the
    relative step delta taken wavelength-independent.  Deterministic and
    reproducible; the default.

``sellmeier-blend``
    Sellmeier coefficients interpolated linearly between the silica and
    germania endpoint sets, with the blend fraction of each layer calibrated
    so that its index at 1.55 um equals cladding * (1 + delta).  Closer to
    real doped-glass dispersion at the price of a coefficient-choice
    ambiguity.

Wavelengths are in micrometres throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .fileio import FileFormatError, check, finite_float, non_negative, positive, read_sections

# Three-term Sellmeier fits, (amplitude, resonance wavelength in um) per term.
SILICA_SELLMEIER = (
    (0.6961663, 0.0684043),
    (0.4079426, 0.1162414),
    (0.8974794, 9.896161),
)  # fused silica, Malitson (1965)

GERMANIA_SELLMEIER = (
    (0.80686642, 0.068972606),
    (0.71815848, 0.15396605),
    (0.85416831, 11.841931),
)  # GeO2 glass, Fleming (1984)

SCALED_SILICA = "scaled-silica"
SELLMEIER_BLEND = "sellmeier-blend"

WAVELENGTH_RANGE_UM = (0.5, 2.0)
BLEND_CALIBRATION_UM = 1.55


class MaterialError(ValueError):
    """Invalid material model or evaluation request."""


class WavelengthRangeError(MaterialError):
    """Wavelength outside the supported evaluation band."""


def _sellmeier_n(terms, wavelength_um):
    lam2 = wavelength_um * wavelength_um
    total = 1.0
    for amplitude, resonance in terms:
        total += amplitude * lam2 / (lam2 - resonance * resonance)
    return math.sqrt(total)


def kind_rule(kind):
    known = kind in (SCALED_SILICA, SELLMEIER_BLEND)
    return None if known else f"must be '{SCALED_SILICA}' or '{SELLMEIER_BLEND}', got '{kind}'"


@dataclass(frozen=True)
class MaterialModel:
    """Doping model (scaled-silica or sellmeier-blend); the coefficients are fixed."""

    kind: str = SCALED_SILICA

    def __post_init__(self):
        if problem := kind_rule(self.kind):
            raise MaterialError(f"kind {problem}")


def terms(blend_fraction=0.0):
    """Sellmeier terms at the given silica->germania blend fraction.

    On the supported band every blend's sum lies in [2.07, 2.61] and every
    resonance at least 0.346 um outside it: no blend is singular there.
    """
    if blend_fraction == 0.0:
        return SILICA_SELLMEIER
    return tuple(
        (
            (1.0 - blend_fraction) * bs + blend_fraction * bg,
            (1.0 - blend_fraction) * rs + blend_fraction * rg,
        )
        for (bs, rs), (bg, rg) in zip(SILICA_SELLMEIER, GERMANIA_SELLMEIER)
    )


def material_index(model, blend_fraction, wavelength_um):
    """Refractive index of the (possibly blended) glass at one wavelength."""
    lo, hi = WAVELENGTH_RANGE_UM
    if not (lo <= wavelength_um <= hi):
        raise WavelengthRangeError(
            f"wavelength {wavelength_um} um outside supported range [{lo}, {hi}] um"
        )
    if not (0.0 <= blend_fraction <= 1.0):
        raise ValueError(f"blend_fraction must lie in [0, 1], got {blend_fraction}")
    if model.kind == SCALED_SILICA:
        blend_fraction = 0.0
    return _sellmeier_n(terms(blend_fraction), wavelength_um)


@lru_cache(maxsize=None)
def _blend_fraction_for_delta(delta):
    """Blend fraction whose index at the calibration wavelength hits 1+delta."""
    if delta == 0.0:
        return 0.0
    from scipy.optimize import brentq  # deferred: scipy.optimize takes ~0.5 s to import

    n_silica = _sellmeier_n(SILICA_SELLMEIER, BLEND_CALIBRATION_UM)
    target = n_silica * (1.0 + delta)
    n_germania = _sellmeier_n(terms(1.0), BLEND_CALIBRATION_UM)
    if not (n_silica <= target <= n_germania):
        raise MaterialError(
            f"relative index step {delta} is outside the silica-germania blend range"
        )
    return brentq(
        lambda x: _sellmeier_n(terms(x), BLEND_CALIBRATION_UM) - target,
        0.0,
        1.0,
        xtol=1e-15,
    )


@dataclass(frozen=True)
class Layer:
    """One annulus of the profile: outer radius (um) and relative index step."""

    radius_um: float
    delta: float


@dataclass(frozen=True)
class FiberProfile:
    """Ordered layers over an unbounded cladding; beyond the last layer delta = 0."""

    layers: tuple
    cladding: MaterialModel = MaterialModel()
    name: str = ""

    def __post_init__(self):
        layers = tuple(
            layer if isinstance(layer, Layer) else Layer(*layer) for layer in self.layers
        )
        object.__setattr__(self, "layers", layers)
        if problems := self.problems(layers):
            raise ValueError("; ".join(message for _, message in problems))

    @staticmethod
    def problems(layers):
        """Defects of a layer sequence as (layer index, message), at most one a layer.

        A radius must be finite, > 0 and above every radius before it; a delta must be finite.
        """
        problems = []
        previous = 0.0
        for index, layer in enumerate(layers):
            radius = layer.radius_um
            if problem := positive(radius):
                problems.append((index, f"radius_um {problem}"))
            elif not math.isfinite(radius):
                problems.append((index, f"radius_um must be finite, got {radius}"))
            elif radius <= previous:
                problems.append((index, f"layer radii must be strictly increasing, got {radius} "
                                        f"after {previous}"))
            elif not math.isfinite(layer.delta):
                problems.append((index, f"layer delta must be finite, got {layer.delta}"))
            previous = max(previous, radius)
        return problems

    def cladding_index(self, wavelength_um):
        return material_index(self.cladding, 0.0, wavelength_um)

    def layer_index(self, position, wavelength_um):
        layer = self.layers[position]
        if self.cladding.kind == SELLMEIER_BLEND:
            fraction = _blend_fraction_for_delta(layer.delta)
            return material_index(self.cladding, fraction, wavelength_um)
        return self.cladding_index(wavelength_um) * (1.0 + layer.delta)


def profile_index(profile, radius_um, wavelength_um):
    """Index at radial position r; boundary radii belong to the inner layer."""
    check("radius", non_negative, radius_um)
    for position, layer in enumerate(profile.layers):
        if radius_um <= layer.radius_um:
            return profile.layer_index(position, wavelength_um)
    return profile.cladding_index(wavelength_um)


def _fields(entries, keys, where, diagnostics):
    """key -> (line, value) of section entries; an unknown or repeated key is reported."""
    found = {}
    for number, key, value in entries:
        if key not in keys:
            diagnostics.append((number, f"unknown key '{key}'{where}"))
        elif key in found:
            diagnostics.append((number, f"duplicate '{key}'{where}"))
        else:
            found[key] = (number, value)
    return found


def parse_profile(text, source="<profile>"):
    """Parse the line-oriented profile format, reporting every defect at once."""
    diagnostics, preamble, sections = read_sections(text, lambda name: name == "layer")
    top = _fields(preamble, ("name", "material_model"), "", diagnostics)
    number, kind = top.get("material_model", (0, SCALED_SILICA))
    if problem := kind_rule(kind):
        diagnostics.append((number, f"material_model {problem}"))
    layers, lines = [], []  # lines: the radius_um line of each layer
    for header, _, entries in sections:
        fields = _fields(entries, ("radius_um", "delta_percent"), " in [layer]", diagnostics)
        values = []
        for key in ("radius_um", "delta_percent"):
            if key not in fields:
                diagnostics.append((header, f"[layer] is missing '{key}'"))
                continue
            number, value = fields[key]
            try:
                values.append(finite_float(value))
            except ValueError as exc:
                diagnostics.append((number, f"{key}: {exc}"))
        if len(values) == 2:
            layers.append(Layer(values[0], values[1] / 100.0))
            lines.append(fields["radius_um"][0])

    diagnostics += [(lines[index], message) for index, message in FiberProfile.problems(layers)]
    if not layers and not diagnostics:
        diagnostics.append((1, "no [layer] sections found"))
    if diagnostics:
        raise FileFormatError(source, diagnostics)
    name = top.get("name", (0, ""))[1]
    return FiberProfile(layers=tuple(layers), cladding=MaterialModel(kind=kind), name=name)


def load_profile(path):
    return parse_profile(Path(path).read_text(), source=str(path))
