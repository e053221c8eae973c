"""Shared fixtures and session-scoped spectral caches.

The expensive objects (quantized maps, eigendecompositions, Walsh models)
are memoized per session so the acceptance suite and the unit tests can
share them without recomputation.  Cached arrays are shared by reference;
tests must treat them as read-only.
"""

import dataclasses
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import oqmap
from oqmap import (
    BakerSpec,
    QuantizationConfig,
    WalshModel,
    eigen_decompose,
    quantize_open,
    symmetric_spec,
    validate_spec,
    walsh_open,
)


def make_spec3() -> BakerSpec:
    return symmetric_spec(3, (0, 2))


def make_spec5() -> BakerSpec:
    return symmetric_spec(5, (1, 3))


def make_asym() -> BakerSpec:
    # branch lengths (1/2, 1/4, 1/4), middle branch removed
    return validate_spec(
        (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)), (0, 2)
    )


_SPEC_FACTORIES = {"D3": make_spec3, "D5": make_spec5, "asym": make_asym}


@lru_cache(maxsize=None)
def get_spec(tag: str) -> BakerSpec:
    return _SPEC_FACTORIES[tag]()


@lru_cache(maxsize=None)
def get_quantization(tag: str, dimension: int, bloch=(0.0, 0.0)):
    config = QuantizationConfig(dimension=dimension, bloch=bloch)
    return quantize_open(get_spec(tag), config)


@lru_cache(maxsize=None)
def get_open_spectrum(tag: str, dimension: int, bloch=(0.0, 0.0), vectors=False):
    qmap = get_quantization(tag, dimension, bloch).open_map
    return eigen_decompose(qmap, want_vectors=vectors)


@lru_cache(maxsize=None)
def get_walsh(branches: int, keep: tuple, word_length: int):
    return walsh_open(branches, keep, word_length)


@lru_cache(maxsize=None)
def get_walsh_spectrum(branches: int, keep: tuple, word_length: int):
    model = get_walsh(branches, keep, word_length)
    return eigen_decompose(model.open_map)


@pytest.fixture(scope="session")
def spec3():
    return get_spec("D3")


@pytest.fixture(scope="session")
def spec5():
    return get_spec("D5")


@pytest.fixture(scope="session")
def asym_spec():
    return get_spec("asym")


@pytest.fixture(scope="session")
def walsh_cache():
    return get_walsh


@pytest.fixture(scope="session")
def walsh_spectrum_cache():
    return get_walsh_spectrum


@pytest.fixture(scope="session")
def quantization_cache():
    return get_quantization


@pytest.fixture(scope="session")
def open_spectrum_cache():
    return get_open_spectrum


def use_removed_digit_core(monkeypatch):
    """Mutant: WalshModel.core lists the words of the removed digits, and
    .core_block is M's block on them, which is zero because Omega_D zeroes
    the removed columns."""
    kept_words = WalshModel.core.fget

    def core(model):
        removed = tuple(d for d in range(model.branch_count)
                        if d not in model.keep)
        return kept_words(dataclasses.replace(model, keep=removed))

    def core_block(model):
        return model.open_map.matrix[np.ix_(model.core, model.core)]

    monkeypatch.setattr(WalshModel, "core", property(core))
    monkeypatch.setattr(WalshModel, "core_block", property(core_block))


def fraction_intervals(intervals) -> tuple:
    """Oracle: integer-numerator intervals as exact Fraction pairs, the
    form the refinement used to hand out."""
    den = intervals.den
    return tuple((Fraction(lo, den), Fraction(hi, den))
                 for lo, hi in zip(intervals.los, intervals.his))


def random_rational_spec(rng: np.random.Generator, max_branches: int = 6,
                         max_keep: int | None = None) -> BakerSpec:
    """Draw a random partition with rational cut points and a proper keep set."""
    n_branches = int(rng.integers(2, max_branches + 1))
    denominator = int(rng.integers(n_branches + 1, 48))
    cuts = sorted(rng.choice(np.arange(1, denominator), size=n_branches - 1,
                             replace=False).tolist())
    partition = (
        [Fraction(0)]
        + [Fraction(c, denominator) for c in cuts]
        + [Fraction(1)]
    )
    keep_size = int(rng.integers(1, n_branches))
    if max_keep is not None:
        keep_size = min(keep_size, max_keep)
    keep = tuple(sorted(rng.choice(n_branches, size=keep_size,
                                   replace=False).tolist()))
    return validate_spec(tuple(partition), keep)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance gate criteria")
