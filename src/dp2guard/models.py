"""Small trainable models: multinomial logistic regression and a one-hidden-
layer MLP, with flat-parameter gradients for softmax cross-entropy."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch


@dataclass(frozen=True)
class Model:
    """Architecture descriptor; parameters travel separately as flat vectors.

    arch "logreg": W (L, p) + b (L,); arch "mlp": W1 (h, p) + b1 + W2 (L, h)
    + b2 with ReLU hidden activation.  Loss is mean softmax cross-entropy.
    """

    arch: str
    n_features: int
    n_classes: int
    hidden: int = 128
    shapes: tuple[tuple[int, ...], ...] = field(init=False)
    # (start, stop, shape) of each parameter block in the flat vector.
    blocks: tuple[tuple[int, int, tuple[int, ...]], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.arch == "logreg":
            shapes = ((self.n_classes, self.n_features), (self.n_classes,))
        elif self.arch == "mlp":
            shapes = (
                (self.hidden, self.n_features),
                (self.hidden,),
                (self.n_classes, self.hidden),
                (self.n_classes,),
            )
        else:
            raise ValueError(f"unknown architecture {self.arch!r}")
        blocks = []
        stop = 0
        for shape in shapes:
            start, stop = stop, stop + int(np.prod(shape))
            blocks.append((start, stop, shape))
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def dim(self) -> int:
        return self.blocks[-1][1]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Zero init for logreg (convex); scaled Gaussian init for the MLP."""
        if self.arch == "logreg":
            return np.zeros(self.dim)
        w1 = rng.standard_normal((self.hidden, self.n_features))
        w1 *= np.sqrt(2.0 / self.n_features)
        w2 = rng.standard_normal((self.n_classes, self.hidden))
        w2 *= np.sqrt(2.0 / self.hidden)
        return flatten([w1, np.zeros(self.hidden), w2, np.zeros(self.n_classes)])

    def unflatten(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of each parameter block of a flat vector of length dim."""
        if flat.shape[0] != self.dim:
            raise ShapeMismatch(f"flat vector length {flat.shape[0]}, model needs {self.dim}")
        return [flat[start:stop].reshape(shape) for start, stop, shape in self.blocks]

    def logits(self, flat: np.ndarray, features: np.ndarray) -> np.ndarray:
        return self._forward(flat, features)[0]

    def _forward(self, flat: np.ndarray, features: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Logits, plus the MLP's hidden pre-activation and activation
        (None for logreg), which the backward pass reuses."""
        if features.shape[1] != self.n_features:
            raise ShapeMismatch(
                f"model expects {self.n_features} features, got {features.shape[1]}"
            )
        if self.arch == "logreg":
            w, b = self.unflatten(flat)
            return features @ w.T + b, None, None
        w1, b1, w2, b2 = self.unflatten(flat)
        pre = features @ w1.T + b1
        act = np.maximum(pre, 0.0)
        return act @ w2.T + b2, pre, act

    def loss(self, flat: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        logp = _log_softmax(self.logits(flat, features))
        return float(-np.mean(logp[np.arange(len(labels)), labels]))

    def grad(self, flat: np.ndarray, features: np.ndarray, labels: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """Mean cross-entropy gradient, flattened to length dim, written into
        `out` (a contiguous float64 vector of length dim) when given.

        One forward pass; each block's gradient is written straight into
        its slice of the returned vector."""
        if len(labels) == 0:
            raise ShapeMismatch("gradient of an empty batch")
        n = len(labels)
        logits, pre, act = self._forward(flat, features)
        delta = _softmax_inplace(logits)
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        out = np.empty(self.dim) if out is None else out
        parts = self.unflatten(out)
        if self.arch == "logreg":
            np.matmul(delta.T, features, out=parts[0])
            np.sum(delta, axis=0, out=parts[1])
            return out
        d_w1, d_b1, d_w2, d_b2 = parts
        np.matmul(delta.T, act, out=d_w2)
        np.sum(delta, axis=0, out=d_b2)
        back = delta @ self.unflatten(flat)[2]
        back *= pre > 0.0
        np.matmul(back.T, features, out=d_w1)
        np.sum(back, axis=0, out=d_b1)
        return out

    def predict(self, flat: np.ndarray, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(flat, features), axis=1)

    def accuracy(self, flat: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(flat, features) == labels))


def flatten(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.asarray(p, dtype=np.float64).ravel() for p in parts])


def sgd_step(params: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """One descent step: params - eta * grad."""
    if params.shape != grad.shape:
        raise ShapeMismatch(f"params {params.shape} vs grad {grad.shape}")
    return params - eta * grad


def _softmax_inplace(logits: np.ndarray) -> np.ndarray:
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
