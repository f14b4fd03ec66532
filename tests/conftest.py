import pytest

from flowcnn.models import data_path, running_example


@pytest.fixture(scope="session")
def rex_spec():
    return running_example()


@pytest.fixture()
def rex_file():
    return data_path("running_example.json")


@pytest.fixture()
def sweep_geometry_file():
    return data_path("sweep_conv.json")


@pytest.fixture()
def residual_doc():
    """conv -> conv -> residual merge at 3/2 features per cycle."""
    return {
        "input": {"height": 8, "width": 8, "channels": 4, "rate": "3/2"},
        "layers": [
            {"kind": "conv", "k": 3, "p": 1, "d_out": 4},
            {"kind": "conv", "k": 3, "p": 1, "d_out": 4},
            {"kind": "residual_add", "residual_source": 0},
        ],
    }
