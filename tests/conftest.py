"""Shared fixtures for the test suite.

Session scope keeps the expensive artifacts -- the fitted surrogates,
the full benchmark run and the plant-side growth bound -- computed once
for the whole suite.  Everything is deterministic under the default
configuration seed.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from narxmpc import (
    BenchmarkConfig,
    KernelSpec,
    TwoTankNarxDynamics,
    estimate_growth_bound,
    fit_interpolant,
    generate_dataset,
    make_mpc_config,
    run_benchmark,
    sample_state_grid,
    storage_matrix,
)
from narxmpc.bench import BENCHMARK_SIZES, GROWTH_HORIZON, GROWTH_STATES
from oracles import quiet

# Property tests draw the same examples on every run, so the suite stays
# deterministic and its running time bounded.
settings.register_profile(
    "narxmpc", derandomize=True, max_examples=30, deadline=None, database=None
)
settings.load_profile("narxmpc")


@pytest.fixture(scope="session")
def cfg() -> BenchmarkConfig:
    return BenchmarkConfig()


@pytest.fixture(scope="session")
def dims(cfg):
    return cfg.dims


@pytest.fixture(scope="session")
def norm(cfg):
    return cfg.normalization()


@pytest.fixture(scope="session")
def mpc_cfg(cfg):
    return make_mpc_config(cfg)


@pytest.fixture(scope="session")
def storage(cfg, mpc_cfg):
    return storage_matrix(cfg.dims, mpc_cfg.weights)


@pytest.fixture(scope="session")
def plant_view(cfg):
    return TwoTankNarxDynamics(cfg.dt, cfg.normalization(), cfg.dims)


def _generate_and_fit(cfg: BenchmarkConfig, d: int):
    data, _ = generate_dataset(replace(cfg, d=d))
    spec = KernelSpec(input_dim=data.sites.shape[1], lengthscale=cfg.sigma)
    return data, fit_interpolant(spec, data)


@pytest.fixture(scope="session")
def fit_101(cfg):
    """(dataset, model) for the small interpolation set."""
    return _generate_and_fit(cfg, 101)


@pytest.fixture(scope="session")
def fit_2501(cfg):
    """(dataset, model) for the large interpolation set."""
    return _generate_and_fit(cfg, 2501)


@pytest.fixture(scope="session")
def benchmark_run(cfg, tmp_path_factory):
    """The standard benchmark's result, with the command's sizes and
    growth grid, plus its wall-clock runtime, bundle writing included."""
    t0 = time.perf_counter()
    result = run_benchmark(
        cfg, tmp_path_factory.mktemp("benchmark"), BENCHMARK_SIZES, GROWTH_STATES, GROWTH_HORIZON, quiet
    )
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def shared_growth_grid(cfg):
    """The benchmark's standard grid, on which every growth-bound comparison runs."""
    return sample_state_grid(cfg, GROWTH_STATES, seed=cfg.seed + 29, min_norm=1e-3)


@pytest.fixture(scope="session")
def plant_growth(cfg, mpc_cfg, plant_view, shared_growth_grid):
    """Growth bounds of the exact plant on the shared grid."""
    return estimate_growth_bound(
        plant_view, mpc_cfg, shared_growth_grid, GROWTH_HORIZON, model_tag="plant"
    )
