import dataclasses

import pytest
from hypothesis import settings

from mapsched.config import load_motor_config
from mapsched.harness import design_from_motor

# every Hypothesis test draws the same examples on every run, and no run
# keeps a failing draw for the next, so the suite's result depends on the
# code alone; each test keeps its own max_examples
settings.register_profile("fixed-draws", derandomize=True, database=None)
settings.load_profile("fixed-draws")


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
