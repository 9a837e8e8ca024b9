"""The learners' bits are pinned.

GBT sorts each training matrix once per fit and derives every node's
column order from its parent's; the forest reuses its node's class
counts and one-hot rows; the MLP builds its one-hot labels once per fit.
Every split, threshold, leaf value, weight and GBT loss must keep its
bits, so digests of the fitted arrays and of each model's probabilities
over fixed random sets pin them. The MLP's matrix products go through
BLAS, so its digest also pins the BLAS build's rounding.
"""

import hashlib

import numpy as np
import pytest

from acoubench.models import GradientBoostedTrees, MLPClassifier, RandomForestClassifier

# SHA-256 over both data sets of each learner's fitted arrays and
# predict_proba on held-out rows, as float64/intp bytes. Computed with one
# stable argsort per tree node and a full forward pass per MLP epoch, on
# numpy 2.4, x86-64, OpenBLAS.
PINNED_DIGESTS = {
    "gbt": "63390c6317684f71ae8a6be4b6fbe6e8c3f72ef0211d88ab9f701d643cdfbf5c",
    "mlp": "1f0cd039165750ddcbb8138a5e14e3e0bdbf72a0a7445146c7a0aa763388247c",
    "rf": "d943349fa13da77da33da054eb4dac9b238373b3ffc9046068ef0d1388fec611",
}
PINNED_NUMPY = "2.4"


def pinned_sets():
    """Two training sets with held-out rows: 30 x 8 with 3 classes, and
    200 x 12 with 5 classes rounded to 0.1, so its columns hold ties."""
    rng = np.random.default_rng(2024)
    sets = []
    for n, d, classes, decimals in ((30, 8, 3, None), (200, 12, 5, 1)):
        X = rng.normal(size=(n + 20, d))
        y = rng.integers(0, classes, size=n)
        X[:n, 0] += y  # one informative column, so trees grow past the root
        if decimals is not None:
            X = np.round(X, decimals)
        sets.append((X[:n], y, X[n:]))
    return sets


def _fitted_arrays(kind, X, y, queries):
    if kind == "gbt":
        model = GradientBoostedTrees(n_rounds=8, max_depth=3, seed=3).fit(X, y)
        extra = [np.asarray(model.loss_history_)]
    elif kind == "mlp":
        model = MLPClassifier(hidden=(16, 8), epochs=6, batch_size=8, seed=3).fit(X, y)
        return [*model.weights_, model.predict_proba(queries)]
    else:
        model = RandomForestClassifier(n_trees=12, max_depth=8, seed=3).fit(X, y)
        extra = [model.importances_]
    tree = model.tree_
    return [tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.roots,
            *extra, model.predict_proba(queries)]


@pytest.mark.skipif(
    not np.__version__.startswith(PINNED_NUMPY + "."),
    reason=f"digests computed with numpy {PINNED_NUMPY}",
)
@pytest.mark.parametrize("kind", sorted(PINNED_DIGESTS))
def test_learner_bytes_are_pinned(kind):
    digest = hashlib.sha256()
    for X, y, queries in pinned_sets():
        for array in _fitted_arrays(kind, X, y, queries):
            digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[kind]
