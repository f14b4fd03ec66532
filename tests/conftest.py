import pytest
from hypothesis import settings

from flowcnn.models import data_path, running_example

# Property tests draw the same examples on every run, so that a tier-1
# result can be repeated; `--hypothesis-profile=long` searches wider
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("long", settings.get_profile("default"),
                          max_examples=2000)
settings.load_profile("default")


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
