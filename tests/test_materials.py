import math

import numpy as np
import pytest

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
    profile_index,
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
        assert profile_index(two_layer_profile, 15.0, lam) == material_index(
            SILICA, 0.0, lam
        )


def test_profile_index_inner_layer(two_layer_profile):
    n_clad = two_layer_profile.cladding_index(1.55)
    assert profile_index(two_layer_profile, 1.0, 1.55) == pytest.approx(
        n_clad * 1.0021, rel=1e-12
    )


def test_profile_index_ring_layer(two_layer_profile):
    n_clad = two_layer_profile.cladding_index(1.55)
    assert profile_index(two_layer_profile, 5.0, 1.55) == pytest.approx(
        n_clad * 1.0072, rel=1e-12
    )


def test_profile_piecewise_constant(two_layer_profile):
    inner = profile_index(two_layer_profile, 0.0, 1.55)
    for r in (0.5, 1.7, 2.9, 3.0):
        assert profile_index(two_layer_profile, r, 1.55) == inner
    ring = profile_index(two_layer_profile, 3.0000001, 1.55)
    for r in (4.0, 7.3, 9.99, 10.0):
        assert profile_index(two_layer_profile, r, 1.55) == ring
    assert ring != inner
    assert profile_index(two_layer_profile, 10.0000001, 1.55) != ring


def test_boundary_radius_belongs_to_inner_layer(two_layer_profile):
    n_clad = two_layer_profile.cladding_index(1.55)
    assert profile_index(two_layer_profile, 3.0, 1.55) == pytest.approx(
        n_clad * 1.0021, rel=1e-12
    )
    assert profile_index(two_layer_profile, 10.0, 1.55) == pytest.approx(
        n_clad * 1.0072, rel=1e-12
    )


def test_negative_radius_rejected(two_layer_profile):
    with pytest.raises(ValueError):
        profile_index(two_layer_profile, -0.1, 1.55)


def test_scaled_silica_ratio_wavelength_independent(two_layer_profile):
    ratios = []
    for lam in np.linspace(1.25, 1.65, 10):
        ratios.append(
            profile_index(two_layer_profile, 5.0, lam)
            / two_layer_profile.cladding_index(lam)
        )
    assert max(ratios) - min(ratios) < 1e-12


def test_blend_layer_calibrated_at_1550nm():
    profile = FiberProfile(
        layers=(Layer(10.0, 0.0072),), cladding=MaterialModel(kind=SELLMEIER_BLEND)
    )
    n_clad = profile.cladding_index(1.55)
    assert profile_index(profile, 5.0, 1.55) == pytest.approx(n_clad * 1.0072, abs=1e-12)
    # away from the calibration wavelength the blend ratio drifts
    ratio_low = profile_index(profile, 5.0, 1.30) / profile.cladding_index(1.30)
    assert ratio_low != pytest.approx(1.0072, abs=1e-9)


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
