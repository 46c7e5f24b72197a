import numpy as np
import pytest

from confgauss import lorentz as lz
from conftest import cone_map, stereo, stereo_inv

V_S = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
V_T = np.array([0.0, 0.0, 0.0, 0.0, 1.0])


def test_product_signature_examples():
    assert lz.lorentz_product(lz.V_L, lz.V_L) == 0.0
    assert lz.lorentz_product(V_T, V_T) == -1.0
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert lz.lorentz_product(v, v) == 5.0


def test_product_symmetric_bilinear(rng):
    for _ in range(50):
        u, v, w = rng.normal(size=(3, 5))
        a, b = rng.normal(size=2)
        assert lz.lorentz_product(u, v) == pytest.approx(lz.lorentz_product(v, u))
        lhs = lz.lorentz_product(a * u + b * w, v)
        rhs = a * lz.lorentz_product(u, v) + b * lz.lorentz_product(w, v)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_classify_vector_distinguished():
    assert lz.classify_vector(V_S) == "spacelike"
    assert lz.classify_vector(lz.V_L) == "lightlike"
    assert lz.classify_vector(V_T) == "timelike"


def test_classify_vector_zero_errors():
    with pytest.raises(ValueError, match="degenerate"):
        lz.classify_vector(np.zeros(5))


def _matrix(kind, *param):
    return lz.generator_matrix(lz.Generator(kind, param))


def test_generator_trivial_cases():
    assert np.allclose(_matrix("dil", 0.0), np.eye(5))
    assert np.allclose(_matrix("tra", 0.0, 0.0, 0.0), np.eye(5))
    assert np.array_equal(_matrix("rot", 0.0, 0.0, 1.0, 0.0), np.eye(5))
    assert np.array_equal(_matrix("inv"), np.diag([-1.0, -1.0, -1.0, 1.0, -1.0]))


def test_generators_are_so41():
    mats = [
        _matrix("dil", 0.7),
        _matrix("rot", 0.0, 0.0, 1.0, 0.9),
        _matrix("inv"),
        _matrix("tra", 1.0, 2.0, 3.0),
    ]
    eps = lz.EPSILON
    for m in mats:
        assert np.max(np.abs(m.T @ eps @ m - eps)) <= 1e-12
        assert lz.is_so41(m)


def test_is_so41_counterexample():
    assert lz.is_so41(np.eye(5))
    assert not lz.is_so41(np.diag([2.0, 1.0, 1.0, 1.0, 1.0]))


def test_act_on_r3_examples():
    x = np.array([0.3, -0.4, 0.9])
    assert np.allclose(cone_map(x, "r3", "r3"), x)
    assert np.allclose(cone_map(x, "r3", "r3", _matrix("tra", 1.0, 2.0, 3.0)),
                       x + np.array([1, 2, 3]))
    assert np.allclose(cone_map(x, "r3", "r3", _matrix("inv")), x / np.dot(x, x))
    assert np.allclose(cone_map([2.0, 0.0, 0.0], "r3", "r3", _matrix("inv")),
                       [0.5, 0.0, 0.0])


def test_act_on_s3_examples():
    x = np.array([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(cone_map(x, "s3", "s3"), x)
    theta = lz.axis_angle_matrix([0.0, 0.0, 1.0], 1.1)
    out = cone_map(x, "s3", "s3", _matrix("rot", 0.0, 0.0, 1.0, 1.1))
    assert np.allclose(out[:3], theta @ x[:3])
    assert out[3] == pytest.approx(x[3])
    north = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.allclose(cone_map(north, "s3", "s3", _matrix("dil", 0.8)), north)


def test_morphism_property(rng):
    for _ in range(20):
        m1 = lz.word_matrix(lz.random_word(rng))
        m2 = lz.word_matrix(lz.random_word(rng))
        x = rng.uniform(-0.8, 0.8, size=3)
        lhs = cone_map(x, "r3", "r3", m1 @ m2)
        rhs = cone_map(cone_map(x, "r3", "r3", m2), "r3", "r3", m1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_projection_compatibility(rng):
    # pi(M.X) = M.(pi(X)) through the isomorphism
    for _ in range(20):
        m = lz.word_matrix(lz.random_word(rng))
        x = rng.uniform(-0.8, 0.8, size=3)
        lhs = stereo(cone_map(stereo_inv(x), "s3", "s3", m))
        rhs = cone_map(x, "r3", "r3", m)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_type_preservation_under_words(rng):
    for _ in range(30):
        m = lz.word_matrix(lz.random_word(rng))
        v = rng.normal(size=5)
        # stay away from the light cone so the type is stable
        if abs(lz.lorentz_product(v, v)) < 0.1 * np.dot(v, v):
            continue
        assert lz.classify_vector(m @ v) == lz.classify_vector(v)


def test_random_words_in_so41(rng):
    for _ in range(30):
        assert lz.is_so41(lz.word_matrix(lz.random_word(rng)), tol=1e-10)


def test_parse_word():
    word = lz.parse_word("dil:0.5 rot:z,1.2 inv tra:1,0,0")
    assert [g.kind for g in word] == ["dil", "rot", "inv", "tra"]
    assert word[0].param == (0.5,)
    assert word[1].param == (0.0, 0.0, 1.0, 1.2)
    assert word[3].param == (1.0, 0.0, 0.0)
    assert lz.parse_word("") == []
    with pytest.raises(ValueError):
        lz.parse_word("boost:1")
    with pytest.raises(ValueError):
        lz.parse_word("tra:1,2")
    # the axis is normalized at any finite, nonzero scale
    ref = lz.word_matrix(lz.parse_word("rot:1,1,0,1"))
    for text in ("rot:1e300,1e300,0,1", "rot:1e-200,1e-200,0,1"):
        assert np.max(np.abs(lz.word_matrix(lz.parse_word(text)) - ref)) <= 1e-15


def test_word_matrix_composes_left_to_right():
    word = lz.parse_word("dil:0.5 tra:1,0,0")
    m = lz.word_matrix(word)
    x = np.array([0.2, 0.0, 0.0])
    expected = np.exp(0.5) * x + np.array([1.0, 0.0, 0.0])
    assert np.allclose(cone_map(x, "r3", "r3", m), expected)


@pytest.mark.parametrize("text", ["dil:30 dil:-30", "tra:1e100,0,0 tra:-1e100,0,0",
                                  "dil:300 rot:z,1 dil:-300 rot:z,-1"])
def test_word_matrix_of_cancelling_similarities_is_the_identity(text):
    # a run of similarities is one factor, not a product of e^30-sized entries
    assert np.max(np.abs(lz.word_matrix(lz.parse_word(text)) - np.eye(5))) <= 1e-15


@pytest.mark.parametrize("text", ["dil:30", "tra:1e6,0,0", "tra:4,0,0 inv dil:0.3",
                                  "dil:20 inv dil:-20", "tra:1e6,0,0 inv tra:-1e6,0,0"])
def test_word_matrix_without_cancellation_keeps_the_group(text):
    # large factors whose product is as large as they are lose nothing
    m = lz.word_matrix(lz.parse_word(text))
    defect = np.max(np.abs(m.T @ lz.EPSILON @ m - lz.EPSILON))
    assert defect <= 1e-15 * max(1.0, np.max(np.abs(m)) ** 2)


@pytest.mark.parametrize("text", ["dil:8 inv dil:8", "dil:10 inv dil:10",
                                  "dil:12 tra:1,0,0 inv dil:12", "dil:20 inv dil:20",
                                  "dil:30 inv dil:30", "dil:300 inv dil:300"])
def test_word_matrix_cancelling_across_an_inversion_is_a_named_error(text):
    # each word is the inversion up to a small similarity; its product keeps
    # eps e^{2 lam} of error.  From dil:25 on the error is a near-null
    # rank-one matrix that passes a relative group-defect test
    with pytest.raises(ValueError, match="matrix of the word is lost to cancellation"):
        lz.word_matrix(lz.parse_word(text))


def test_word_matrix_overflow_is_a_named_error():
    # each factor is finite; their product across the inversions is not
    word = lz.parse_word("dil:300 inv " * 4)
    with pytest.raises(ValueError, match="matrix of the word overflows"):
        lz.word_matrix(word)


# first words of seeded draws, recorded as literals: the kind table must
# consume the generator's stream in the same order as the words were drawn
RANDOM_WORDS = {
    (2024, True): [
        ("tra", (-0.5713535975234847, -0.3810959382366166, 0.5989321935496663)),
        ("inv", ()),
        ("inv", ()),
    ],
    (2024, False): [
        ("tra", (-0.5713535975234847, -0.3810959382366166, 0.5989321935496663)),
        ("tra", (-0.7155363694398964, -0.842548932476002, -0.6383523726062907)),
        ("tra", (-0.28070621662129813, -0.6607615005859033, 0.1775186310794603)),
    ],
    (7, True): [
        ("tra", (0.794427601939151, 0.551371380490387, -0.5495856200188163)),
        ("dil", (0.7471068907925238,)),
        ("rot", (0.042087685075105526, 0.9378646231969613, -0.3444395089426308,
                 -0.20147063316635405)),
        ("inv", ()),
        ("rot", (0.35613080465054037, 0.10519088803708176, -0.9284964873670383,
                 0.028577553857860316)),
        ("tra", (0.9910005668687853, 0.5853238384275061, 0.24435845888232532)),
    ],
    (7, False): [
        ("rot", (0.3052950235405569, -0.2801478599619021, -0.9101165448227702,
                 -1.2555922625248999)),
        ("dil", (-0.9894693908688506,)),
        ("tra", (0.6424568367655326, 0.5941388575040925, -0.06413009431255845)),
        ("tra", (-0.44314877579845335, -0.4902608246917508, -0.10984738823470686)),
        ("dil", (0.009096517915906599,)),
        ("rot", (-0.566469947842618, -0.19284538826928463, -0.8012006330591924,
                 3.0722272157111794)),
    ],
}


@pytest.mark.parametrize("seed, allow_inversion", sorted(RANDOM_WORDS))
def test_random_word_pinned(seed, allow_inversion):
    word = lz.random_word(np.random.default_rng(seed), allow_inversion=allow_inversion)
    assert [(g.kind, g.param) for g in word] == RANDOM_WORDS[seed, allow_inversion]


@pytest.mark.parametrize("model", sorted(lz.CHARTS))
def test_lift_reads_its_chart(model):
    # lift writes the coordinates on K and c + |x|^2/2 q off K, so the
    # table must keep c and q off the coordinate components
    chart = lz.CHARTS[model]
    assert not chart.c[chart.cols].any() and not chart.q[chart.cols].any()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, len(chart.cols)))
    v = rng.normal(size=x.shape)
    e_k = np.eye(5)[:, chart.cols]
    quad = 0.5 * np.sum(x * x, axis=-1)[:, None]
    assert np.allclose(lz.lift(x, model), x @ e_k.T + chart.c + quad * chart.q,
                       rtol=1e-15, atol=1e-15)
    assert np.allclose(lz.lift(x, model, tangent=v),
                       v @ e_k.T + np.sum(x * v, axis=-1)[:, None] * chart.q,
                       rtol=1e-15, atol=1e-15)


def test_generator_kinds_table():
    assert list(lz.GENERATOR_KINDS) == ["dil", "rot", "tra", "inv"]
    for kind, spec in lz.GENERATOR_KINDS.items():
        gen = lz.Generator(kind, spec.draw(np.random.default_rng(0)))
        assert len(gen.param) == spec.nparams
        assert lz.is_so41(lz.generator_matrix(gen), tol=1e-12)


@pytest.mark.parametrize("kind, param, match", [
    ("boost", (1.0,), "unknown generator kind 'boost'"),
    ("rot", (), "rot needs 4 parameters, got 0"),
    ("tra", (1.0, 2.0), "tra needs 3 parameters, got 2"),
    ("inv", (1.0,), "inv needs 0 parameters, got 1"),
    ("dil", (float("nan"),), "dil parameters must be finite"),
    ("tra", (float("inf"), 0.0, 0.0), "tra parameters must be finite"),
    ("rot", (0.0, 0.0, 1.0, float("-inf")), "rot parameters must be finite"),
    ("rot", (0.0, 0.0, 0.0, 1.0), "zero rotation axis"),
    # a matrix that overflows is named; the suite makes a RuntimeWarning an error
    ("dil", (800.0,), r"dil parameters \(800.0,\) overflow"),
    # e^lam underflows to 0, so 1 / e^lam overflows
    ("dil", (-800.0,), r"dil parameters \(-800.0,\) overflow"),
    ("tra", (1e200, 0.0, 0.0), r"tra parameters \(1e\+200, 0.0, 0.0\) overflow"),
])
def test_generator_validates_itself(kind, param, match):
    with pytest.raises(ValueError, match=match):
        lz.Generator(kind, param)


@pytest.mark.parametrize("text, match", [
    ("dil:nan", "'dil:nan'.*finite"),
    ("tra:inf,0,0", "'tra:inf,0,0'.*finite"),
    ("dil:0.1 rot:1,2", "'rot:1,2'.*rot needs 4 parameters, got 2"),
    ("inv:1", "'inv:1'.*inv needs 0 parameters"),
    # an axis name expands only for rot; elsewhere it is a bad number
    ("tra:x,1", "'tra:x,1'.*float: 'x'"),
    ("dil:x,1", "'dil:x,1'.*float: 'x'"),
    ("dil:x", "'dil:x'"),
    ("dil:0.2 rot:0,0,0,1", "'rot:0,0,0,1'.*zero rotation axis"),
])
def test_parse_word_names_the_bad_token(text, match):
    with pytest.raises(ValueError, match=match):
        lz.parse_word(text)
