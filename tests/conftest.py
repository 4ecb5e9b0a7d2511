import dataclasses

import pytest

from mapsched.config import load_motor_config
from mapsched.harness import design_from_motor


@pytest.fixture(scope="session")
def motor():
    return load_motor_config()


@pytest.fixture(scope="session")
def motor_zoh(motor):
    return dataclasses.replace(motor, discretization="zoh")


@pytest.fixture(scope="session")
def motor_euler(motor):
    return dataclasses.replace(motor, discretization="euler")


@pytest.fixture(scope="session")
def vertices_euler(motor_euler):
    return design_from_motor(motor_euler)


@pytest.fixture(scope="session")
def vertices_zoh(motor_zoh):
    return design_from_motor(motor_zoh)
