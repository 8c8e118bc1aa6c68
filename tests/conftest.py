import numpy as np
import pytest

_QUARTER = (np.eye(4) / 4.0).tolist()
# state JSON that parses but is malformed: each must raise ValidationError
MALFORMED_STATES = {
    "dims-int": {"dims": 4, "re": _QUARTER},
    "dims-text": {"dims": "22", "re": _QUARTER},
    "dims-negative": {"dims": [-2, -2], "re": _QUARTER},
    "dims-fraction": {"dims": [4.9, 1], "re": _QUARTER},
    "re-ragged": {"dims": [2, 2], "re": [row[: 2 + (i != 1) * 2] for i, row in enumerate(_QUARTER)]},
    "im-object": {"dims": [2, 2], "re": _QUARTER, "im": {"a": 1}},
    "bds-text": {"bds": ["a", 0, 0]},
    "bds-null": {"bds": [None, 0, 0]},
    "bloch-text": {"bloch": {"x": "abc", "y": [0, 0, 0], "T": [[0, 0, 0]] * 3}},
    # numeric strings are not numbers either, in any of the three forms
    "bds-numeric-text": {"bds": ["0.5", "0", " 0 "]},
    "re-numeric-text": {"dims": [2, 2], "re": [[str(v) for v in row] for row in _QUARTER]},
    "im-numeric-text": {"dims": [2, 2], "re": _QUARTER, "im": [["0"] * 4] * 4},
    "bloch-numeric-text": {"bloch": {"x": ["0", 0, 0], "y": [0, 0, 0], "T": [[0, 0, 0]] * 3}},
}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=sorted(MALFORMED_STATES))
def malformed_state(request):
    return MALFORMED_STATES[request.param]
