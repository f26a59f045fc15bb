"""Byte-compatibility of the state operations against recorded payloads.

Every registered kind runs one fixed script of state operations, and the
wire payload after each stage is compared byte for byte with the fixtures
under ``tests/data/golden_state_ops/``:

* ``ingest`` — scalar updates, a batch, then ``fit``;
* ``merge_scale`` — ``merge`` with a peer, then ``scale(0.5)``;
* ``negate_empty_batch`` — ``scale(-1)``, then an empty batch;
* ``fold_bind`` — ``fold_state`` of a peer's raw state, ``bind_state_buffers``
  into fresh arrays, then a batch written through them;
* ``restore_update`` — a ``from_bytes`` restore, then one scalar update.

The conservative-update kinds are not linear, so they run only the first
and last stages; Count-Min rejects a negative scale factor, so it skips
``negate_empty_batch``.

The contract tests compare ``merge``/``scale`` with ``allclose`` and treat
``0.0 == -0.0`` as equal; bytes do not.  The data fed to every kind that
accepts negative deltas sums to exactly zero, so the running sums of
``debiased_count_min`` (‖x‖₁) and the mean kinds are a signed zero when
scaled by −1, and the empty batch that follows shows how each kind treats
it: ``DebiasedCountMin`` adds the batch's ``0.0`` sum, the mean kinds skip
an empty batch.  Every delta is a small integer, so every sum is exact.

The fixtures were recorded before the table sketches' ingest, merge, scale
and restore code was shared in :mod:`repro.sketches.base`.  To re-record
them (only for a deliberate wire change)::

    PYTHONPATH=src python tests/sketches/test_golden_state_ops.py
"""

import struct
from pathlib import Path

import numpy as np
import pytest

from repro.serialization import sketch_from_bytes
from repro.sketches.registry import available_sketches, get_spec

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "golden_state_ops"

DIM, WIDTH, DEPTH, SEED = 256, 16, 3, 20170708

#: kinds fed non-negative data: the conservative-update kinds take only
#: non-negative increments, and Count-Min's ``fit`` a non-negative vector
NON_NEGATIVE = ("count_min", "count_min_cu", "count_min_log_cu")

_LENGTH = struct.Struct("<I")


def _stream(name, seed):
    """Scalar updates, a batch and a dense vector for one kind."""
    rng = np.random.default_rng(seed)
    scalar = list(zip(rng.integers(0, DIM, size=24).tolist(),
                      rng.integers(1, 9, size=24).astype(float).tolist()))
    indices = rng.integers(0, DIM, size=500)
    deltas = rng.integers(1, 9, size=500).astype(float)
    vector = rng.integers(0, 6, size=DIM).astype(float)
    if name not in NON_NEGATIVE:
        # every ingest sums to exactly zero (see the module docstring)
        scalar += [((7 * index + 3) % DIM, -delta) for index, delta in scalar]
        indices = np.concatenate([indices, rng.permutation(indices)])
        deltas = np.concatenate([deltas, -deltas])
        vector = vector - np.roll(vector, 1)
    return scalar, indices, deltas, vector


def _ingest(sketch, name, seed):
    scalar, indices, deltas, vector = _stream(name, seed)
    for index, delta in scalar:
        sketch.update(index, delta)
    sketch.update_batch(indices, deltas)
    sketch.fit(vector)
    return sketch


def replay(name):
    """Run the script on kind ``name``: ``[(stage, payload), ...]``."""
    spec = get_spec(name)

    def build():
        return spec.build(DIM, WIDTH, DEPTH, seed=SEED)

    sketch = _ingest(build(), name, 1)
    stages = [("ingest", sketch.to_bytes())]
    if spec.linear:
        sketch.merge(_ingest(build(), name, 2))
        sketch.scale(0.5)
        stages.append(("merge_scale", sketch.to_bytes()))
        if name != "count_min":
            sketch.scale(-1.0)
            sketch.update_batch(np.empty(0, dtype=np.int64), np.empty(0))
            stages.append(("negate_empty_batch", sketch.to_bytes()))
        peer = _ingest(build(), name, 3).state_dict()
        sketch.fold_state(peer["arrays"], peer["scalars"],
                          peer["meta"]["items_processed"])
        buffers = {field: np.zeros(shape)
                   for field, shape in sketch.shared_state_layout()}
        sketch.bind_state_buffers(buffers)
        _, indices, deltas, _ = _stream(name, 4)
        sketch.update_batch(indices[:64], deltas[:64])
        for field, array in sketch.state_dict()["arrays"].items():
            np.testing.assert_array_equal(buffers[field], array)
        stages.append(("fold_bind", sketch.to_bytes()))
    restored = sketch_from_bytes(sketch.to_bytes())
    restored.update(5, 3.0)
    stages.append(("restore_update", restored.to_bytes()))
    return stages


def _pack(payloads):
    return b"".join(_LENGTH.pack(len(p)) + p for p in payloads)


def _unpack(data):
    payloads, offset = [], 0
    while offset < len(data):
        (length,) = _LENGTH.unpack_from(data, offset)
        offset += _LENGTH.size
        payloads.append(data[offset:offset + length])
        offset += length
    return payloads


@pytest.mark.parametrize("name", available_sketches())
def test_state_ops_reproduce_recorded_bytes(name):
    golden = _unpack((GOLDEN_DIR / f"{name}.payloads").read_bytes())
    stages = replay(name)
    assert len(stages) == len(golden)
    for (stage, payload), expected in zip(stages, golden):
        assert payload == expected, f"{name}: stage {stage!r} diverged"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for kind in available_sketches():
        payloads = [payload for _, payload in replay(kind)]
        (GOLDEN_DIR / f"{kind}.payloads").write_bytes(_pack(payloads))
