"""References that only the tests need, kept out of the library.

Not collected: test modules import it by name.

- ``reference_estimates``: the estimator's superposition at every kappa,
  chip by chip, on the kernel's streams at kappa != 2; at kappa = 2 a
  reference in law for the kernel's Gamma-distributed branch energies.
- ``write_idx``: IDX serialization, the inverse of
  :func:`reedsim.datasets.parse_idx`, for parser fixtures.
- ``column``: one named quantity of a :func:`reedsim.fedavg.run_fedavg`
  trace.
- ``arms``: the arms of a :class:`reedsim.fedavg.FedRunConfig` that runs
  several aggregators on one radio.
"""

import struct

import numpy as np

from reedsim import estimator
from reedsim.datasets import _MAGIC_IMAGES, _MAGIC_LABELS
from reedsim.fedavg import TRACE_COLUMNS


def reference_estimates(inputs: estimator.ScalarInputs, cfg: estimator.ReedPhyConfig,
                        key, n_trials: int) -> np.ndarray:
    """``sample_estimates`` with every kappa superposed client by client:
    chip m and branch b superpose on ``key.generator(m, b)``, the positive
    branch is added to the total and the negative one subtracted, and the
    total is normalized by eta * C_M * R, as the kernel does."""
    total = np.zeros(n_trials)
    for m, c in enumerate(cfg.chip_weights):
        for branch, (part, combine) in enumerate(((inputs.pos, np.add),
                                                  (inputs.neg, np.subtract))):
            received = estimator._superposed_energy(key.generator(m, branch),
                                                    part[:, None], c, cfg, np.empty(n_trials))
            combine(total, received, out=total)
    total /= cfg.eta * cfg.weight_sum * cfg.antennas
    return total


def write_idx(array: np.ndarray, rows: int | None = None, cols: int | None = None) -> bytes:
    """Serialize labels (1-D int) or images (2-D in [0,1]) back to IDX bytes."""
    arr = np.asarray(array)
    if arr.ndim == 1:
        payload = arr.astype(np.uint8).tobytes()
        return struct.pack(">II", _MAGIC_LABELS, arr.size) + payload
    if arr.ndim == 2:
        n, p = arr.shape
        if rows is None or cols is None:
            rows, cols = 1, p
        if rows * cols != p:
            raise ValueError("rows * cols must equal the feature width")
        bytes_img = np.rint(arr * 255.0).astype(np.uint8)
        return struct.pack(">IIII", _MAGIC_IMAGES, n, rows, cols) + bytes_img.tobytes()
    raise ValueError("array must be 1-D labels or 2-D images")


def column(trace: np.ndarray, name: str) -> np.ndarray:
    """The ``TRACE_COLUMNS`` column ``name`` of a trace: one value per round
    of a (T, F) trace, or the one value of an (F,) round row."""
    return trace[..., TRACE_COLUMNS.index(name)]


def arms(*names: str, phy: estimator.ReedPhyConfig | None = None) -> tuple:
    """One arm per aggregator name, every one on the radio ``phy`` (the
    default radio if None)."""
    phy = phy or estimator.ReedPhyConfig()
    return tuple((name, phy) for name in names)
