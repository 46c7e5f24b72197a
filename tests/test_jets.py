import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from confgauss import jets as J
from confgauss import lorentz as lz
from confgauss.lorentz import Generator, axis_angle_matrix, generator_matrix, random_word
from conftest import cone_map, hyper_inv, stereo_inv


def _quadratic_jet(u, v):
    # curved test chart with all second derivatives nonzero
    pos = np.stack([0.3 + u + 0.2 * u * v, -0.1 + v + 0.1 * u * u,
                    0.4 + 0.3 * u * v + 0.1 * v * v], axis=-1)
    du = np.stack([1 + 0.2 * v, 0.2 * u, 0.3 * v], axis=-1)
    dv = np.stack([0.2 * u, np.ones_like(v), 0.3 * u + 0.2 * v], axis=-1)
    duu = np.stack([np.zeros_like(u), 0.2 * np.ones_like(u), np.zeros_like(u)], axis=-1)
    duv = np.stack([0.2 * np.ones_like(u), np.zeros_like(u), 0.3 * np.ones_like(u)], axis=-1)
    dvv = np.stack([np.zeros_like(u), np.zeros_like(u), 0.2 * np.ones_like(u)], axis=-1)
    return J.Jet2(pos, du, dv, duu, duv, dvv)


def _fd_check(push, point_map, scale=1.0):
    """Pushforward derivatives must match finite differences of the map."""
    h = 1e-5
    u0, v0 = 0.17, -0.23
    vals = {}
    for du_ in (-2, -1, 0, 1, 2):
        for dv_ in (-2, -1, 0, 1, 2):
            u = np.array([[u0 + du_ * h]])
            v = np.array([[v0 + dv_ * h]])
            jet = _quadratic_jet(u, v)
            vals[(du_, dv_)] = np.asarray(point_map(jet.pos[0, 0]))
    jet = _quadratic_jet(np.array([[u0]]), np.array([[v0]]))
    out = push(jet)
    f_u = (vals[(-2, 0)] - 8 * vals[(-1, 0)] + 8 * vals[(1, 0)] - vals[(2, 0)]) / (12 * h)
    f_v = (vals[(0, -2)] - 8 * vals[(0, -1)] + 8 * vals[(0, 1)] - vals[(0, 2)]) / (12 * h)
    f_uu = (-vals[(-2, 0)] + 16 * vals[(-1, 0)] - 30 * vals[(0, 0)]
            + 16 * vals[(1, 0)] - vals[(2, 0)]) / (12 * h * h)
    f_vv = (-vals[(0, -2)] + 16 * vals[(0, -1)] - 30 * vals[(0, 0)]
            + 16 * vals[(0, 1)] - vals[(0, 2)]) / (12 * h * h)
    f_uv = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (4 * h * h)
    tol = 1e-8 * scale
    assert np.max(np.abs(out.pos[0, 0] - vals[(0, 0)])) <= 1e-12 * scale
    assert np.max(np.abs(out.du[0, 0] - f_u)) <= tol
    assert np.max(np.abs(out.dv[0, 0] - f_v)) <= tol
    assert np.max(np.abs(out.duu[0, 0] - f_uu)) <= 1e-4 * scale
    assert np.max(np.abs(out.duv[0, 0] - f_uv)) <= 1e-5 * scale
    assert np.max(np.abs(out.dvv[0, 0] - f_vv)) <= 1e-4 * scale


def test_push_inversion_matches_finite_differences():
    _fd_check(lambda jet: J.push_word(jet, [Generator("inv")]),
              lambda x: x / np.dot(x, x))


def test_push_word_matches_finite_differences():
    word = [Generator("dil", (0.4,)), Generator("rot", (0.3, -0.5, 0.8, 1.1)),
            Generator("tra", (1.0, 0.0, 0.0)), Generator("inv")]
    theta = axis_angle_matrix((0.3, -0.5, 0.8), 1.1)

    def point_map(x):
        moved = theta @ (np.exp(0.4) * x) + np.array([1.0, 0.0, 0.0])
        return moved / np.dot(moved, moved)

    _fd_check(lambda jet: J.push_word(jet, word), point_map)


def test_push_stereo_inv_matches_finite_differences():
    _fd_check(J.push_stereo_inv, stereo_inv)


def test_push_hyper_inv_matches_finite_differences():
    _fd_check(J.push_hyper_inv, hyper_inv)


def test_push_word_composes():
    u = np.linspace(-0.3, 0.3, 9)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    jet = _quadratic_jet(uu, vv)
    word = [Generator("dil", (0.4,)), Generator("tra", (1.0, 0.0, 0.0)),
            Generator("inv")]
    out = J.push_word(jet, word)
    x = jet.pos
    moved = np.exp(0.4) * x + np.array([1.0, 0.0, 0.0])
    expected = moved / (moved ** 2).sum(axis=-1)[..., None]
    assert np.max(np.abs(out.pos - expected)) <= 1e-13


def test_push_inversion_guards_origin():
    zero = np.zeros((3, 3, 3))
    jet = J.Jet2(zero, zero, zero, zero, zero, zero)
    with pytest.raises(ValueError, match="inversion center"):
        J.push_word(jet, [Generator("inv")])


def test_stereo_round_trip_on_jets():
    u = np.linspace(-0.3, 0.3, 9)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    jet = _quadratic_jet(uu, vv)
    back = J.push_stereo(J.push_stereo_inv(jet))
    for a, b in zip((jet.pos, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv),
                    (back.pos, back.du, back.dv, back.duu, back.duv, back.dvv)):
        assert np.max(np.abs(a - b)) <= 1e-11


def test_hyper_round_trip_on_jets():
    u = np.linspace(-0.2, 0.2, 9)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    jet = _quadratic_jet(uu, vv)
    back = J.push_hyper(J.push_hyper_inv(jet))
    for a, b in zip((jet.pos, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv),
                    (back.pos, back.du, back.dv, back.duu, back.duv, back.dvv)):
        assert np.max(np.abs(a - b)) <= 1e-11


_JET_PARTS = ("pos", "du", "dv", "duu", "duv", "dvv")


def _grid_jet():
    u = np.linspace(-0.3, 0.3, 9)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    return _quadratic_jet(uu, vv)


def test_push_word_calls_the_exact_pass_once_per_inversion(monkeypatch):
    calls = []
    exact = J._push

    def counting(*args, **kwargs):
        calls.append(args[3])
        return exact(*args, **kwargs)

    monkeypatch.setattr(J, "_push", counting)
    word = [Generator("dil", (0.4,)), Generator("tra", (1.0, 0.0, 0.0)),
            Generator("inv"), Generator("rot", (0.0, 0.0, 1.0, 0.5)),
            Generator("tra", (0.0, 2.0, 0.0)), Generator("inv"), Generator("inv"),
            Generator("dil", (-0.2,))]
    J.push_word(_grid_jet(), word)
    assert len(calls) == 3
    assert all(np.array_equal(m, generator_matrix(Generator("inv"))) for m in calls)
    calls.clear()
    J.push_word(_grid_jet(), [g for g in word if g.kind != "inv"])
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_push_word_matches_generator_by_generator(seed):
    """The fused push equals the one-generator-at-a-time exact push."""
    word = random_word(np.random.default_rng(seed), allow_inversion=True)
    ref = _grid_jet()
    for gen in word:
        if gen.kind == "inv":
            # the inversion centre stays off the surface
            r = np.linalg.norm(ref.pos, axis=-1)
            assume(r.min() >= 0.1 * max(1.0, r.max()))
        ref = J._push(ref, "r3", "r3", generator_matrix(gen))
    out = J.push_word(_grid_jet(), word)
    for name in _JET_PARTS:
        a, b = getattr(out, name), getattr(ref, name)
        scale = np.maximum(1.0, np.linalg.norm(b, axis=-1))
        assert np.all(np.linalg.norm(a - b, axis=-1) <= 1e-13 * scale), name


@pytest.mark.parametrize("lam", [5.0, 10.0, 18.0, 20.0, 100.0, -100.0])
def test_push_dilation_is_exact(lam):
    jet = _grid_jet()
    out = J.push_word(jet, [Generator("dil", (lam,))])
    for name in _JET_PARTS:
        expected = np.exp(lam) * getattr(jet, name)
        err = np.abs(getattr(out, name) - expected)
        assert np.all(err <= 2 * np.finfo(float).eps * np.abs(expected)), name


def test_push_far_translation_is_exact():
    jet = _grid_jet()
    shift = np.array([1e9, 0.0, 0.0])
    out = J.push_word(jet, [Generator("tra", tuple(shift))])
    assert np.array_equal(out.pos, jet.pos + shift)
    for name in _JET_PARTS[1:]:
        assert np.array_equal(getattr(out, name), getattr(jet, name)), name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_similarity_matrix_matches_its_affine_map(seed):
    """Each similarity's SO(4,1) matrix moves points to s R x + t."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(8, 3))
    for gen in random_word(rng, allow_inversion=True):
        similarity = lz.GENERATOR_KINDS[gen.kind].similarity
        if similarity is None:
            continue
        s, rot, t = similarity(gen.param)
        m = lz._similarity_matrix(s, rot, t)
        assert lz.is_so41(m)
        assert np.max(np.abs(cone_map(x, "r3", "r3", m) - (s * x @ rot.T + t))) <= 1e-12
