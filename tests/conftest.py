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
