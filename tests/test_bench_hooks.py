"""The benchmark's traced run wraps program functions by name
(``mexibench.tracer.TARGETS``): every target must resolve, methods must be
defined on the named class itself, and the parameters the tracer binds by
name must exist."""
import importlib
import inspect

import pytest

from mexibench.tracer import TARGETS


def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    if "." not in attr:
        return getattr(mod, attr)
    cls_name, meth = attr.split(".")
    # the tracer patches cls.__dict__[meth]: an inherited method would crash it
    return getattr(mod, cls_name).__dict__[meth]


@pytest.mark.parametrize("name,module,attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_target_resolves(name, module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize(
    "module,attr,param",
    [
        ("repro.core.mexi", "build_transform_stage", "data"),
        ("repro.core.measures", "matcher_measures", "n_perm"),
        ("repro.core.utilize", "select_experts", "preds"),
        ("pyspark.sql.session", "SparkSession.createDataFrame", "data"),
    ],
)
def test_bound_parameter_exists(module, attr, param):
    assert param in inspect.signature(_resolve(module, attr)).parameters
