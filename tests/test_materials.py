import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import blend_fraction_brentq

from fmf_ttdl import materials
from fmf_ttdl.fileio import FileFormatError
from fmf_ttdl.materials import (
    FiberProfile,
    Layer,
    MaterialError,
    MaterialModel,
    SCALED_SILICA,
    SELLMEIER_BLEND,
    WavelengthRangeError,
    load_profile,
    material_index,
    parse_profile,
)

SILICA = MaterialModel()

# 50-digit evaluations of the Malitson fit, frozen as oracle values.
SILICA_N_1550 = 1.4440236217032609
SILICA_N_5876 = 1.4584623420532409


def test_silica_at_1550nm():
    n = material_index(SILICA, 0.0, 1.55)
    assert n == pytest.approx(SILICA_N_1550, abs=1e-12)
    assert n == pytest.approx(1.4440, abs=5e-4)


def test_silica_at_sodium_d_line():
    n = material_index(SILICA, 0.0, 0.5876)
    assert n == pytest.approx(SILICA_N_5876, abs=1e-12)
    assert n == pytest.approx(1.4585, abs=5e-4)


def test_zero_blend_matches_pure_silica_everywhere():
    blend = MaterialModel(kind=SELLMEIER_BLEND)
    for lam in np.linspace(0.6, 1.9, 27):
        assert material_index(blend, 0.0, lam) == material_index(SILICA, 0.0, lam)


def test_silica_index_strictly_decreasing_on_c_band():
    grid = np.linspace(1.3, 1.7, 100)
    values = [material_index(SILICA, 0.0, lam) for lam in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_wavelength_domain_error():
    with pytest.raises(WavelengthRangeError):
        material_index(SILICA, 0.0, 0.4)
    with pytest.raises(WavelengthRangeError):
        material_index(SILICA, 0.0, 2.5)


def test_blend_fraction_domain_error():
    with pytest.raises(ValueError):
        material_index(MaterialModel(kind=SELLMEIER_BLEND), 1.2, 1.55)


def test_model_invariants_rejected_at_construction():
    with pytest.raises(MaterialError):
        MaterialModel(kind="quartz")


@pytest.fixture(scope="module")
def two_layer_profile():
    return FiberProfile(layers=(Layer(3.0, 0.0021), Layer(10.0, 0.0072)))


def test_profile_index_in_cladding(two_layer_profile):
    for lam in (1.5, 1.55, 1.6):
        assert two_layer_profile.cladding_index(lam) == material_index(SILICA, 0.0, lam)


def test_profile_index_inner_layer(two_layer_profile):
    n_clad = two_layer_profile.cladding_index(1.55)
    assert two_layer_profile.layer_index(0, 1.55) == pytest.approx(n_clad * 1.0021, rel=1e-12)


def test_profile_index_ring_layer(two_layer_profile):
    n_clad = two_layer_profile.cladding_index(1.55)
    assert two_layer_profile.layer_index(1, 1.55) == pytest.approx(n_clad * 1.0072, rel=1e-12)


def test_profile_piecewise_constant(two_layer_profile):
    # one index a layer, each its own, and the cladding's beyond the last layer
    indices = [two_layer_profile.layer_index(j, 1.55) for j in (0, 1)]
    assert len({*indices, two_layer_profile.cladding_index(1.55)}) == 3


def test_scaled_silica_ratio_wavelength_independent(two_layer_profile):
    ratios = [two_layer_profile.layer_index(1, lam) / two_layer_profile.cladding_index(lam)
              for lam in np.linspace(1.25, 1.65, 10)]
    assert max(ratios) - min(ratios) < 1e-12


def test_blend_layer_calibrated_at_1550nm():
    profile = FiberProfile(
        layers=(Layer(10.0, 0.0072),), cladding=MaterialModel(kind=SELLMEIER_BLEND)
    )
    n_clad = profile.cladding_index(1.55)
    assert abs(profile.layer_index(0, 1.55) - n_clad * 1.0072) <= math.ulp(n_clad * 1.0072)
    # away from the calibration wavelength the blend ratio drifts
    ratio_low = profile.layer_index(0, 1.30) / profile.cladding_index(1.30)
    assert ratio_low != pytest.approx(1.0072, abs=1e-9)


# the largest relative step a blend reaches: pure germania over silica at 1.55 um
BLEND_TOP = (
    materials._sellmeier_n(materials.terms(1.0), 1.55)
    / materials._sellmeier_n(materials.SILICA_SELLMEIER, 1.55) - 1.0
)


def _blend_index(fraction):
    return materials._sellmeier_n(materials.terms(fraction), 1.55)


def _first_reaches_the_target(delta):
    # the fraction x where the calibration index first reaches the target, to the
    # float (or 0.0 where silica already reaches it), within 4e-15 of scipy's brentq
    x = materials._blend_fraction_for_delta(delta)
    target = _blend_index(0.0) * (1.0 + delta)
    assert _blend_index(x) >= target, delta
    assert x == 0.0 or _blend_index(math.nextafter(x, 0.0)) < target, delta
    assert abs(x - blend_fraction_brentq(delta)) <= 4e-15, delta
    profile = FiberProfile((Layer(1.0, delta),), MaterialModel(kind=SELLMEIER_BLEND))
    assert abs(profile.layer_index(0, 1.55) - target) <= math.ulp(target), delta


# 1e-16 and -1e-17 leave 1 + delta at 1, so their target is silica's own index;
# 2**-52 takes 1 + delta one ulp above 1
@pytest.mark.parametrize("delta", [0.0021, 0.0072, 1e-9, 0.0, 5e-324, BLEND_TOP, 1e-16, -1e-17,
                                   2.0**-52, 1e-15, math.nextafter(BLEND_TOP, 0.0)])
def test_blend_fraction_matches_scipy_brentq_at_fixed_deltas(delta):
    _first_reaches_the_target(delta)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, BLEND_TOP) | st.floats(0.0, 1e-6))
def test_blend_fraction_matches_scipy_brentq(delta):
    _first_reaches_the_target(delta)


@pytest.mark.parametrize("delta", [-1e-3, -1e-12, BLEND_TOP + 1e-9, 0.5, math.nan, math.inf])
def test_blend_fraction_out_of_range_is_a_material_error(delta):
    message = f"relative index step {delta} is outside the silica-germania blend range"
    with pytest.raises(MaterialError, match=f"^{re.escape(message)}$"):
        materials._blend_fraction_for_delta(delta)


def test_profile_structural_validation():
    with pytest.raises(ValueError):
        FiberProfile(layers=(Layer(5.0, 0.002), Layer(4.0, 0.007)))
    with pytest.raises(ValueError):
        FiberProfile(layers=(Layer(0.0, 0.002),))
    with pytest.raises(ValueError):
        FiberProfile(layers=(Layer(3.0, math.inf),))


def test_profile_constructor_and_parser_share_the_layer_rules():
    layers = (Layer(5.0, 0.002), Layer(4.0, 0.007), Layer(-1.0, 0.001), Layer(6.0, math.inf),
              Layer(math.inf, 0.001))
    problems = [
        (1, "layer radii must be strictly increasing, got 4.0 after 5.0"),
        (2, "radius_um must be > 0, got -1.0"),
        (3, "layer delta must be finite, got inf"),
        (4, "radius_um must be finite, got inf"),
    ]
    assert FiberProfile.problems(layers) == problems
    with pytest.raises(ValueError) as excinfo:
        FiberProfile(layers=layers)
    assert str(excinfo.value) == "; ".join(message for _, message in problems)
    text = "".join(f"[layer]\nradius_um = {radius}\ndelta_percent = 0.3\n"
                   for radius in (5.0, 4.0, -1.0))
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text)
    assert excinfo.value.diagnostics == ((5, problems[0][1]), (8, problems[1][1]))


PROFILE_TEXT = """# demo
name = ring-core-demo
material_model = scaled-silica

[layer]
radius_um = 3.0
delta_percent = 0.21

[layer]
radius_um = 10.0
delta_percent = 0.72
"""


def test_parse_profile_happy_path():
    profile = parse_profile(PROFILE_TEXT)
    assert profile.name == "ring-core-demo"
    assert profile.cladding.kind == SCALED_SILICA
    assert [layer.radius_um for layer in profile.layers] == [3.0, 10.0]
    assert profile.layers[0].delta == pytest.approx(0.0021)
    assert profile.layers[1].delta == pytest.approx(0.0072)


def test_parse_profile_nonincreasing_radii_line_number():
    text = PROFILE_TEXT.replace("radius_um = 10.0", "radius_um = 2.0")
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text, source="bad.prof")
    lines = [line for line, _ in excinfo.value.diagnostics]
    messages = [message for _, message in excinfo.value.diagnostics]
    assert lines == [10]
    assert "strictly increasing" in messages[0]


def test_parse_profile_collects_every_defect():
    text = "\n".join(
        (
            "name = x",
            "material_model = quartz",
            "wrong = 1",
            "[layer]",
            "radius_um = nope",
            "delta_percent = 0.3",
            "garbage",
        )
    )
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text, source="bad.prof")
    lines = [line for line, _ in excinfo.value.diagnostics]
    assert lines == sorted(lines)
    assert len(lines) >= 4


def test_load_profile_demo_file(tmp_path):
    path = tmp_path / "ring.prof"
    path.write_text(PROFILE_TEXT)
    profile = load_profile(path)
    assert len(profile.layers) == 2


def test_parse_profile_rejects_non_finite_numbers():
    text = PROFILE_TEXT.replace("radius_um = 3.0", "radius_um = nan").replace(
        "delta_percent = 0.72", "delta_percent = -inf"
    )
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text, source="bad.prof")
    finite = [line for line, message in excinfo.value.diagnostics if "finite" in message]
    lines = text.splitlines()
    assert [lines[line - 1].split("=")[1].strip() for line in finite] == ["nan", "-inf"]


def test_rejected_layer_value_is_not_also_missing():
    text = PROFILE_TEXT.replace("radius_um = 3.0", "radius_um = nan")
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text, source="bad.prof")
    assert len(excinfo.value.diagnostics) == 1
    line, message = excinfo.value.diagnostics[0]
    assert line == 6 and "finite" in message


@pytest.mark.parametrize("key, first, second", [
    ("material_model", "sellmeier-blend", "scaled-silica"),
    ("name", "ring", "core"),
])
def test_repeated_top_level_key_is_a_diagnostic_at_its_line(key, first, second):
    text = (f"{key} = {first}\n# comment\n{key} = {second}\n"
            "[layer]\nradius_um = 3.0\ndelta_percent = 0.21\n")
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text, source="bad.prof")
    assert excinfo.value.diagnostics == ((3, f"duplicate '{key}'"),)
