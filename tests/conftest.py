import numpy as np
import pytest

from mfhier import ParameterBox, SplitMix64, assemble


@pytest.fixture(scope="session")
def small_system():
    """Cheap parabolic discretization for module-level tests."""
    return assemble(n_h=60, K=30, T=1.0, Q=2)


@pytest.fixture(scope="session")
def default_system():
    """The reference discretization (n_h=200, K=100, Q=2)."""
    return assemble(n_h=200, K=100, T=1.0, Q=2)


@pytest.fixture
def diffusivity_box():
    return ParameterBox([[0.1, 10.0], [0.1, 10.0]])


def random_coefficients(rng: SplitMix64, n_rows: int, n_cols: int,
                        scale: float = 1.0) -> np.ndarray:
    return np.array([[rng.uniform(-scale, scale) for _ in range(n_cols)]
                     for _ in range(n_rows)])


def strip_duration_columns(path) -> list:
    """Result rows with every duration cell (dur_s1..dur_sL) blanked."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        dur_idx = [i for i, name in enumerate(header) if name.startswith("dur_")]
        rows = [",".join(header)]
        for line in fh:
            cells = line.rstrip("\n").split(",")
            for i in dur_idx:
                cells[i] = ""
            rows.append(",".join(cells))
    return rows
