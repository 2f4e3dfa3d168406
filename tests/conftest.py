"""Shared frozen reference data and fixtures for the test suite.

Values are stored as printed strings; the matching tolerance is half a unit
in the last printed decimal place, derived from the string itself.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.eigh during the test."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls

# (m, n) -> {size: printed triple product, "target": printed limit}
TABLE1 = {
    (1, 2): {
        99: "2.156",
        100: "2.088",
        999: "2.127",
        1000: "2.117",
        1999: "2.125",
        2000: "2.120",
        "target": "2.122",
    },
    (2, 3): {
        99: "9.828",
        100: "10.032",
        999: "9.918",
        1000: "9.945",
        1999: "9.924",
        2000: "9.939",
        "target": "9.931",
    },
    (20, 31): {
        99: "935.67",
        100: "959.59",
        999: "956.05",
        1000: "958.89",
        1999: "956.77",
        2000: "958.31",
        "target": "957.56",
    },
    (60, 91): {
        99: "5198.7",
        100: "6667.9",
        999: "8803.1",
        1000: "8828.4",
        1999: "8814.0",
        2000: "8827.5",
        "target": "8822.4",
    },
}

# rank -> (order 999 complete, order 1000 truncated to 999, order 1000 complete)
TABLE2 = {
    1: ("0.000000", "0.996663", "0.996663"),
    2: ("3.986641", "3.986641", "0.996663"),
    3: ("3.986641", "8.969969", "8.969969"),
    4: ("15.94656", "15.94656", "8.969969"),
    5: ("15.94656", "24.91658", "24.91658"),
    996: ("988294.4", "988294.4", "986110.2"),
    997: ("988294.4", "990283.2", "990283.2"),
    998: ("992673.3", "992673.3", "990283.2"),
    999: ("992673.3", "994666.5", "994666.5"),
    1000: (None, None, "994666.5"),
}


def tol_from_printed(printed: str) -> float:
    """Half a unit in the last printed decimal place."""
    if "." not in printed:
        return 0.5
    return 0.5 * 10.0 ** (-len(printed.split(".")[1]))
