"""Robot geometry, terrain profiles, and reaction-force law tests."""

import dataclasses
import importlib.util
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from granugait.config import RunConfig
from granugait.control import ControllerParams
from granugait.gait import GaitParams, LegId
from granugait.model import (GRAVITY, GroundModel, RobotModel, TerrainProfile,
                             blend_ratio)
from granugait.percept import LoadPipelineConfig
from granugait.sim import (ContactSet, _layout, build_contacts,
                           contact_forces)

GM = GroundModel(rft_par=1.5, rft_perp=3.75, slip_eps=1e-4)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_INI = os.path.join(ROOT, "configs", "default.ini")


def one_contact_force(v, heading, normal_load, gm, mu, rho):
    """``contact_forces`` on one contact whose long axis points at
    ``heading``."""
    c = ContactSet(
        pos=np.zeros((1, 2)),
        axis=np.array([[math.cos(heading), math.sin(heading)]]),
        rho=np.array([float(rho)]), normal=np.array([float(normal_load)]),
        vshape=np.zeros((1, 2)), jac=np.zeros((3, 1, 2)), ref=np.zeros(2),
    )
    return contact_forces(np.array([v], dtype=float), c, gm, mu)[0]


# ---------------------------------------------------------------------------
# blend_ratio

@pytest.mark.parametrize("d,expect", [(0, 0.0), (20, 0.5), (40, 1.0),
                                      (60, 1.0)])
def test_blend_ratio_values(d, expect):
    assert blend_ratio(d) == pytest.approx(expect)


def test_blend_ratio_rejects_negative_depth():
    with pytest.raises(ValueError):
        blend_ratio(-0.1)


@given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
def test_blend_ratio_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    assert blend_ratio(lo) <= blend_ratio(hi)


def test_blend_ratio_array_equals_scalar_calls():
    d = np.array([0.0, 7.5, 20.0, 39.999, 40.0, 55.0])
    np.testing.assert_array_equal(blend_ratio(d), [blend_ratio(x) for x in d])
    with pytest.raises(ValueError):
        blend_ratio(np.array([10.0, -1.0]))
    with pytest.raises(ValueError):
        blend_ratio(np.array([10.0, np.nan]))


@pytest.mark.parametrize("bad, named", [
    ([-1.0, -3.5, -0.25], "-3.5 mm"), ([-2.0, np.nan, -5.0], "nan mm")],
    ids=["smallest", "nan"])
def test_blend_ratio_error_names_one_depth_not_the_array(bad, named):
    """A rejected depth block, as large as a batch's belly rows, is named by
    its smallest offending depth, or NaN if one is NaN; the valid depths
    around it are not printed."""
    d = np.full((6, 32), 12.345)
    d[1, 3], d[2, 7], d[4, 30] = bad
    with pytest.raises(ValueError) as err:
        blend_ratio(d)
    assert str(err.value) == f"depth must be nonnegative, got {named}"


def test_belly_contacts_take_the_depth_blend():
    robot = RobotModel()
    ramp = TerrainProfile.ramp(-0.3, 0.6)      # 5 to 35 mm under the body
    c = build_contacts(np.array([0.225, 0.0, 0.0]), np.zeros(3), np.zeros(3),
                       0.5, GaitParams(), robot, ramp.law)
    n_belly = robot.n_segments * robot.belly_elements_per_segment
    belly = c.rho[:n_belly]
    np.testing.assert_array_equal(
        belly, blend_ratio(ramp.depth_at(c.pos[:n_belly, 0])))
    assert 0.0 < belly.min() < belly.max() < 1.0
    assert not c.rho[n_belly:].any()          # feet stay on Coulomb friction


# ---------------------------------------------------------------------------
# Reaction-force law (sim.contact_forces) on a single contact

def test_pure_axial_rft_drag():
    f = one_contact_force((0.1, 0.0), heading=0.0, normal_load=1.0,
                          gm=GM, mu=0.3, rho=1.0)
    np.testing.assert_allclose(f, [-GM.rft_par * 0.1, 0.0], atol=1e-12)


def test_perpendicular_drag_exceeds_axial():
    f_par = one_contact_force((0.1, 0.0), 0.0, 1.0, GM, 0.3, 1.0)
    f_perp = one_contact_force((0.0, 0.1), 0.0, 1.0, GM, 0.3, 1.0)
    np.testing.assert_allclose(f_perp, [0.0, -GM.rft_perp * 0.1], atol=1e-12)
    assert np.linalg.norm(f_perp) > np.linalg.norm(f_par)


def test_coulomb_opposes_slip_at_mu_n():
    gm = GroundModel(1.5, 3.75, slip_eps=1e-12)
    f = one_contact_force((0.1, 0.0), 0.0, 1.0 / 0.3, gm, 0.3, 0.0)
    np.testing.assert_allclose(f, [-1.0, 0.0], atol=1e-9)


def test_zero_velocity_zero_force():
    f = one_contact_force((0.0, 0.0), 0.7, 5.0, GM, 0.3, 0.4)
    np.testing.assert_allclose(f, [0.0, 0.0])


@given(
    st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1),
    st.floats(min_value=0, max_value=2 * math.pi),
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=0, max_value=1),
)
def test_reaction_force_dissipative(vx, vy, heading, normal, rho):
    v = np.array([vx, vy])
    f = one_contact_force(v, heading, normal, GM, 0.3, rho)
    assert float(f @ v) <= 1e-12


@given(st.floats(min_value=0, max_value=2 * math.pi))
def test_blend_interpolates_endpoints(heading):
    v = (0.05, -0.03)
    f0 = one_contact_force(v, heading, 2.0, GM, 0.3, 0.0)
    f1 = one_contact_force(v, heading, 2.0, GM, 0.3, 1.0)
    fh = one_contact_force(v, heading, 2.0, GM, 0.3, 0.5)
    np.testing.assert_allclose(fh, 0.5 * (f0 + f1), atol=1e-12)


# ---------------------------------------------------------------------------
# TerrainProfile

def test_flat_profile_is_zero():
    t = TerrainProfile.flat()
    np.testing.assert_allclose(t.depth_at(np.linspace(-1, 1, 7)), 0.0)


def test_constant_profile():
    t = TerrainProfile.constant(20.0)
    np.testing.assert_allclose(t.depth_at([0.0, 0.5]), 20.0)
    with pytest.raises(ValueError):
        TerrainProfile.constant(41.0)
    with pytest.raises(ValueError):
        TerrainProfile.constant(-1.0)


def test_ramp_profile():
    t = TerrainProfile.ramp(0.1, 0.6, 40.0)
    assert t.depth_at(0.0) == pytest.approx(0.0)
    assert t.depth_at(0.1) == pytest.approx(0.0)
    assert t.depth_at(0.4) == pytest.approx(20.0)
    assert t.depth_at(0.7) == pytest.approx(40.0)
    assert t.depth_at(5.0) == pytest.approx(40.0)


@pytest.mark.parametrize("args", [
    (0.0, 0.0), (0.02, math.nan), (math.nan, 0.45), (0.02, 0.45, math.nan),
    (0.02, math.inf), (0.02, 0.45, -10.0),
], ids=["zero-length", "nan-length", "nan-start", "nan-depth", "inf-length",
        "negative-depth"])
def test_ramp_rejects_bad_parameters(args):
    """A zero or infinite length, a NaN or a negative depth is refused when
    the terrain is built, naming it, instead of failing at the first step
    (NaN) or running as flat ground (inf length, negative depth)."""
    with pytest.raises(ValueError, match="^terrain ramp-"):
        TerrainProfile.ramp(*args)


def test_depth_beyond_model_range_is_rejected():
    """Depths past the model's 40 mm are refused at construction, so no
    terrain can hand the blend a depth outside [0, 40]."""
    with pytest.raises(ValueError, match="^terrain too-deep: depth 300.0 mm"):
        TerrainProfile("too-deep", 300.0)
    for depth in (0.0, 40.0):
        assert TerrainProfile("edge", depth).depth_at(5.0) == depth


# ---------------------------------------------------------------------------
# RobotModel / GroundModel

def _feet(robot):
    """Segment, along-segment offset and lateral offset of each foot of
    ``sim._layout(robot)``, keyed by leg."""
    seg, along, lateral, _ = _layout(robot)
    n = len(LegId)
    return {leg: (int(s), float(a), float(lat)) for leg, s, a, lat
            in zip(LegId, seg[-n:], along[-n:, 0], lateral[-n:, 0])}


def test_robot_defaults():
    r = RobotModel()
    assert r.body_length == pytest.approx(0.45)
    assert r.weight == pytest.approx(0.6 * 9.81)
    feet = _feet(r)
    assert feet[LegId.LF][0] == feet[LegId.RF][0] == 1
    assert feet[LegId.LH][0] == feet[LegId.RH][0] == 3


@pytest.mark.parametrize("kwargs", [
    {"n_segments": 3}, {"mass": 0.0}, {"friction": -0.1},
    {"belly_elements_per_segment": 1}, {"belly_weight_frac": 1.0},
    {"belly_weight_frac": -0.1}, {"foot_gm_weight_frac": 0.9},
    {"mass": math.nan}, {"segment_length": 0.0}, {"fore_along": 0.2},
    {"fore_along": -0.01}, {"hind_along": 0.2}, {"hind_along": -0.01},
])
def test_robot_validation(kwargs):
    with pytest.raises(ValueError):
        RobotModel(**kwargs)


def test_run_config_robot_is_default_robot():
    """Every component a default config builds is that component's
    default, and the shipped default file spells out the same values."""
    cfg = RunConfig()
    assert cfg.robot() == RobotModel()
    assert cfg.ground() == GroundModel()
    assert cfg.load_cfg() == LoadPipelineConfig()
    for phi in cfg.phi_grid:
        assert cfg.gait(phi) == GaitParams(body_phase=phi)
    for tau0 in (0.0, 12.5):
        assert cfg.controller_params(tau0) == ControllerParams(tau0=tau0)
    assert RunConfig.from_ini(DEFAULT_INI) == cfg


def test_perfbench_check_defaults_equal_the_component_defaults():
    """perfbench/checks.py judges outputs against its own copies of the
    program's defaults; each copy must equal the component field it names,
    so a changed default cannot leave the benchmark checking old values."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", os.path.join(ROOT, "perfbench", "checks.py"))
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    components = (RobotModel(), GroundModel(), ControllerParams())
    for name, value in checks.DEFAULTS.items():
        owners = [c for c in components
                  if name in {f.name for f in dataclasses.fields(c)}]
        assert len(owners) == 1, name
        assert getattr(owners[0], name) == value, name
    assert checks.GRAVITY == GRAVITY
    assert checks.N_SEGMENTS == RobotModel().n_segments


def test_mirrored_negates_lateral_offsets_only():
    r = RobotModel()
    m = r.mirrored()
    feet, mirrored = _feet(r), _feet(m)
    for leg in LegId:
        assert mirrored[leg][2] == -feet[leg][2]
        assert mirrored[leg][1] == feet[leg][1]
        assert mirrored[leg][0] == feet[leg][0]
    assert m.mass == r.mass
    assert m.foot_gm_weight_frac == r.foot_gm_weight_frac
    # mirroring twice restores the original geometry
    assert m.mirrored() == r
    assert _feet(m.mirrored()) == feet


@pytest.mark.parametrize("kwargs", [
    {"rft_par": 0.0}, {"rft_par": 4.0},          # requires perp > par > 0
    {"rft_par": 3.75, "rft_perp": 3.75}, {"slip_eps": 0.0},
])
def test_ground_validation(kwargs):
    with pytest.raises(ValueError):
        GroundModel(**kwargs)
