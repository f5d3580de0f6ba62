"""Configuration errors: one class, raised by the check that finds the bad value."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import vdd
import vdd.optimize
import vdd.state
from vdd.ansatz import (
    InitScheme,
    build_ansatz,
    build_automaton,
    init_params,
    parse_init_scheme,
)
from vdd.exact import _LevelTables, exact_gradient
from vdd.experiments import VarianceScanConfig
from vdd.graph import ParseError, serialize
from vdd.hamiltonian import ModelSpec, build_model
from vdd.optimize import AdamConfig, SgdConfig, TrainConfig, train
from vdd.state import CapacityError, ConfigError
from vdd.vmc import VmcBatch


def test_one_config_error_class_and_its_subclasses():
    assert vdd.ConfigError is vdd.optimize.ConfigError is vdd.state.ConfigError
    for cls in (CapacityError, ParseError):
        assert issubclass(cls, ConfigError) and issubclass(cls, ValueError)


SPEC = ModelSpec("tfim", 3, g=1.0)

# one row per configuration object: the call and the field its message names
BAD_VALUES = {
    "ModelSpec.model": (lambda: ModelSpec("xy", 4), "unknown model 'xy'"),
    "ModelSpec.boundary": (lambda: ModelSpec("tfim", 4, boundary="twisted"), "unknown boundary"),
    "ModelSpec.n": (lambda: ModelSpec("tfim", 1), "n must be an integer >= 2"),
    "ModelSpec.g": (lambda: ModelSpec("tfim", 4, g=math.nan), "coupling g must be finite"),
    "InitScheme.kind": (lambda: InitScheme("gaussian"), "unknown init kind 'gaussian'"),
    "InitScheme.seed": (lambda: InitScheme("uniform", seed=-1), "seed must be an integer >= 0"),
    "InitScheme.bits": (lambda: InitScheme("basis", bits=(0, 2)), "bits must be 0/1"),
    "parse_init_scheme": (lambda: parse_init_scheme("basis:012"), "basis init needs a 0/1"),
    "init_params.bits": (lambda: init_params(build_ansatz("accordion", 3), InitScheme("basis", bits=(0, 1))),
                         "basis init needs 3 bits"),
    "build_ansatz.kind": (lambda: build_ansatz("ring", 4), "unknown ansatz 'ring'"),
    "build_automaton.n": (lambda: build_automaton(0, lambda level, state, bit: 0),
                          "n must be an integer >= 1"),
    "VmcBatch.count": (lambda: VmcBatch(_LevelTables(build_ansatz("accordion", 2)), 0),
                       "count must be an integer >= 1"),
    "param_mode": (lambda: exact_gradient(build_ansatz("accordion", 3), build_model(SPEC), mode="polar"),
                   "unknown param_mode 'polar'"),
    "TrainConfig.ansatz": (lambda: TrainConfig(model=SPEC, ansatz="ring"), "unknown ansatz"),
    "TrainConfig.model": (lambda: TrainConfig(model="heisenberg"), "model must be a ModelSpec"),
    "TrainConfig.init": (lambda: TrainConfig(model=SPEC, init="uniform"),
                         "init must be None or an InitScheme"),
    "TrainConfig.loss": (lambda: TrainConfig(model=SPEC, loss="nll"), "unknown loss"),
    "TrainConfig.gradient_source": (lambda: TrainConfig(model=SPEC, gradient_source="mps"),
                                    "unknown gradient_source"),
    "TrainConfig.param_mode": (lambda: TrainConfig(model=SPEC, param_mode="polar"),
                               "unknown param_mode"),
    "VarianceScanConfig.model": (lambda: VarianceScanConfig("xy", (2, 3), ("r1",)),
                                 "unknown model 'xy'"),
    "VarianceScanConfig.param_mode": (
        lambda: VarianceScanConfig("tfim", (2, 3), ("r1",), param_mode="polar"),
        "unknown param_mode"),
    "AdamConfig.lr": (lambda: AdamConfig(lr=math.inf), "lr must be positive and finite"),
    "AdamConfig.beta1": (lambda: AdamConfig(beta1=1.0), "betas must lie in [0, 1)"),
    "AdamConfig.eps": (lambda: AdamConfig(eps=math.inf), "eps must be positive and finite"),
    "SgdConfig.lr": (lambda: SgdConfig(lr=math.nan), "lr must be positive and finite"),
}


@pytest.mark.parametrize("make, named", BAD_VALUES.values(), ids=BAD_VALUES)
def test_a_bad_value_is_a_config_error_naming_its_field(make, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        make()


def test_train_refuses_a_basis_init_of_the_wrong_length():
    # init_params finds it, at the start of the run
    with pytest.raises(ConfigError, match="basis init needs 3 bits, got 2"):
        train(TrainConfig(model=SPEC, epochs=1, init=InitScheme("basis", bits=(0, 1))))


def test_numpy_integer_sizes_are_stored_as_python_ints():
    spec = ModelSpec("tfim", np.int64(6))
    assert type(spec.n) is int and json.loads(json.dumps(dataclasses.asdict(spec)))["n"] == 6
    g = build_ansatz("accordion", np.int64(6))
    assert type(g.num_qubits) is int
    assert serialize(g) == serialize(build_ansatz("accordion", 6))
