import numpy as np
import pytest

from dp2guard.errors import ShapeMismatch
from dp2guard.models import Model, flatten, sgd_step
from dp2guard.numeric import substream


def unflatten(flat: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> list[np.ndarray]:
    """Reference block split: consecutive slices of each shape's size."""
    parts = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        parts.append(flat[offset:offset + size].reshape(shape))
        offset += size
    if offset != flat.shape[0]:
        raise ShapeMismatch(f"flat vector length {flat.shape[0]}, model needs {offset}")
    return parts


def reference_grad(model: Model, flat: np.ndarray, features: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """The gradient as first written: one forward pass for the logits, a
    second for the backward pass, and the blocks concatenated at the end.
    `Model.grad` must equal it bit for bit."""
    n = len(labels)
    if model.arch == "logreg":
        w, b = unflatten(flat, model.shapes)
        logits = features @ w.T + b
    else:
        w1, b1, w2, b2 = unflatten(flat, model.shapes)
        logits = np.maximum(features @ w1.T + b1, 0.0) @ w2.T + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    delta = e / e.sum(axis=1, keepdims=True)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    if model.arch == "logreg":
        return flatten([delta.T @ features, delta.sum(axis=0)])
    w1, b1, w2, b2 = unflatten(flat, model.shapes)
    pre = features @ w1.T + b1
    act = np.maximum(pre, 0.0)
    d_w2 = delta.T @ act
    d_b2 = delta.sum(axis=0)
    back = (delta @ w2) * (pre > 0.0)
    d_w1 = back.T @ features
    d_b1 = back.sum(axis=0)
    return flatten([d_w1, d_b1, d_w2, d_b2])


def finite_difference_grad(model: Model, params: np.ndarray, X: np.ndarray,
                           y: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference oracle, independent of the backprop path."""
    grad = np.zeros_like(params)
    for k in range(params.size):
        hi = params.copy()
        hi[k] += eps
        lo = params.copy()
        lo[k] -= eps
        grad[k] = (model.loss(hi, X, y) - model.loss(lo, X, y)) / (2 * eps)
    return grad


def _random_case(model: Model, rng, n=12):
    params = rng.standard_normal(model.dim) * 0.5
    X = rng.standard_normal((n, model.n_features))
    y = rng.integers(0, model.n_classes, size=n)
    return params, X, y


@pytest.mark.parametrize("arch,hidden", [("logreg", 0), ("mlp", 6)])
def test_grad_matches_finite_differences(arch, hidden):
    model = Model(arch, n_features=5, n_classes=3, hidden=max(hidden, 1))
    rng = substream(100, "fd", arch)
    for _ in range(20):
        params, X, y = _random_case(model, rng)
        got = model.grad(params, X, y)
        want = finite_difference_grad(model, params, X, y)
        denom = max(float(np.linalg.norm(want)), 1e-8)
        assert np.linalg.norm(got - want) / denom <= 1e-3


def test_single_sample_logistic_closed_form():
    # Binary softmax on one sample: grad_W rows are (p_c - [c == y]) * x.
    model = Model("logreg", n_features=4, n_classes=2)
    rng = substream(101, "closed")
    for _ in range(20):
        params = rng.standard_normal(model.dim)
        x = rng.standard_normal((1, 4))
        y = np.array([int(rng.integers(0, 2))])
        w, b = model.unflatten(params)
        logits = x[0] @ w.T + b
        p = np.exp(logits - logits.max())
        p /= p.sum()
        onehot = np.eye(2)[y[0]]
        want = flatten([np.outer(p - onehot, x[0]), p - onehot])
        got = model.grad(params, x, y)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_zero_weights_balanced_batch_zero_bias_grad():
    # Uniform softmax minus balanced one-hot labels averages to zero on the
    # bias coordinates, whatever the features are.
    model = Model("logreg", n_features=3, n_classes=2)
    X = np.array([[1.0, 2.0, -1.0], [-0.5, 0.25, 3.0]])
    y = np.array([0, 1])
    g = model.grad(np.zeros(model.dim), X, y)
    bias = g[-2:]
    assert np.max(np.abs(bias)) < 1e-12


class TestSgdStep:
    def test_zero_eta_no_change(self):
        w = np.array([1.0, 2.0])
        assert np.array_equal(sgd_step(w, np.array([3.0, -4.0]), 0.0), w)

    def test_zero_grad_no_change(self):
        w = np.array([1.0, 2.0])
        assert np.array_equal(sgd_step(w, np.zeros(2), 0.5), w)

    def test_arithmetic(self):
        got = sgd_step(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.5)
        assert np.array_equal(got, [0.5, 1.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sgd_step(np.zeros(3), np.zeros(4), 0.1)


class TestFlatten:
    def test_round_trip_identity(self):
        model = Model("mlp", n_features=7, n_classes=3, hidden=5)
        rng = substream(102, "flat")
        for _ in range(10):
            flat = rng.standard_normal(model.dim)
            parts = model.unflatten(flat)
            for got, want in zip(parts, unflatten(flat, model.shapes), strict=True):
                assert got.shape == want.shape and np.shares_memory(got, flat)
                assert np.array_equal(got, want)
            assert np.array_equal(flatten(parts), flat)

    def test_logreg_dim(self):
        assert Model("logreg", 784, 10).dim == 7850
        assert Model("mlp", 784, 10, hidden=64).dim == 50890

    def test_wrong_length_rejected(self):
        for model in (Model("logreg", 4, 2), Model("mlp", 4, 2, hidden=3)):
            for delta in (-1, 1):
                with pytest.raises(ShapeMismatch):
                    model.unflatten(np.zeros(model.dim + delta))


@pytest.mark.parametrize("arch,n_features,hidden", [("logreg", 20, 1), ("logreg", 33, 1),
                                                    ("mlp", 13, 7), ("mlp", 100, 33)])
@pytest.mark.parametrize("batch", [1, 5, 32])
def test_grad_bit_identical_to_reference(arch, n_features, hidden, batch):
    # One forward pass and blocks written in place must not move a bit.
    model = Model(arch, n_features=n_features, n_classes=10, hidden=hidden)
    rng = substream(104, "grad-ref", arch, n_features, batch)
    for trial in range(3):
        params = (model.init_params(rng) if arch == "mlp"
                  else rng.standard_normal(model.dim) * 0.3)
        X = rng.standard_normal((batch, n_features)) * 2.0
        y = rng.integers(0, model.n_classes, size=batch)
        got = model.grad(params, X, y)
        assert got.shape == (model.dim,) and got.flags.c_contiguous
        assert np.array_equal(got, reference_grad(model, params, X, y))


def test_grad_checks_batch_and_feature_width():
    for model in (Model("logreg", 4, 3), Model("mlp", 4, 3, hidden=5)):
        params = np.zeros(model.dim)
        with pytest.raises(ShapeMismatch):
            model.grad(params, np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ShapeMismatch):
            model.grad(params, np.zeros((2, 5)), np.zeros(2, dtype=int))



def test_feature_width_checked():
    model = Model("logreg", n_features=4, n_classes=2)
    with pytest.raises(ShapeMismatch):
        model.logits(np.zeros(model.dim), np.zeros((2, 5)))


def test_mlp_init_deterministic():
    model = Model("mlp", n_features=6, n_classes=3, hidden=4)
    a = model.init_params(substream(7, "init"))
    b = model.init_params(substream(7, "init"))
    assert np.array_equal(a, b)
    assert model.init_params(substream(8, "init"))[0] != a[0]
