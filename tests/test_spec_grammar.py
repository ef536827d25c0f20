"""Spec strings: formatting a spec and parsing the text gives the spec back.

Problems, step rules, x0 samplers and thresholds share one grammar
(``name``, ``name:a,b`` or ``name:k=v,k=v``), read by ``cli._parse_spec``
and written by ``cli._format_spec``.
"""

import pytest
from hypothesis import given, strategies as st

from ssdopt import ArmijoStep, ConfigurationError, FixedStep, ProblemSpec, TheoreticalStep
from ssdopt.cli import (
    _THRESHOLD_FORMS,
    _X0_FORMS,
    _format_problem,
    _format_rule,
    _format_step,
    _parse_problem,
    _parse_rule,
    _parse_step,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
# Integer-valued floats print without a decimal point in problem specs.
numbers = st.one_of(st.integers(-10**6, 10**6).map(float), finite)
positive = st.one_of(
    st.integers(1, 10**6).map(float),
    st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def problems(draw):
    name = draw(st.sampled_from(["nesterov", "quadratic", "lstsq"]))
    if name == "quadratic":
        return ProblemSpec.make(name, {"d": draw(st.integers(1, 8))})
    if name == "nesterov":
        r = draw(st.integers(1, 5))
        d = draw(st.integers(r + 1, 9))
        return ProblemSpec.make(name, {"l": draw(positive), "r": r, "d": d})
    m, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    params = {"m": m, "d": d}
    if draw(st.booleans()):
        params["rank"] = draw(st.integers(1, min(m, d)))
    if draw(st.booleans()):
        params["seed"] = draw(st.integers(0, 10**6))
    return ProblemSpec.make(name, params)


steps = st.one_of(
    st.just(TheoreticalStep()),
    st.builds(FixedStep, numbers),
    st.builds(ArmijoStep, c1=numbers, shrink=numbers, alpha_init=numbers,
              max_backtracks=st.integers(-10**6, 10**6)),
)
x0_rules = st.one_of(
    st.just(("zeros",)),
    st.tuples(st.just("uniform"), numbers, numbers),
    st.tuples(st.just("gaussian"), numbers),
)
thresholds = st.tuples(st.sampled_from(["absolute", "fraction"]), numbers)


@given(problems())
def test_problem_round_trip(spec):
    assert _parse_problem(_format_problem(spec)) == spec


@given(steps)
def test_step_rule_round_trip(rule):
    assert _parse_step(_format_step(rule), "step") == rule


@given(x0_rules)
def test_x0_round_trip(rule):
    assert _parse_rule(_format_rule(rule), "x0 sampler", _X0_FORMS) == rule


@given(thresholds)
def test_threshold_round_trip(rule):
    assert _parse_rule(_format_rule(rule), "threshold rule", _THRESHOLD_FORMS) == rule


@pytest.mark.parametrize(
    "text",
    ["theory", "fixed:0.001", "fixed:1e-06",
     "armijo:c1=0.0001,shrink=0.5,alpha_init=1.0,max_backtracks=30"],
)
def test_printed_step_rules_read_back_unchanged(text):
    assert _format_step(_parse_step(text, "step")) == text


@pytest.mark.parametrize(
    "text",
    ["theory:1", "fixed", "fixed:1,2", "fixed:a", "armijo:c7=1", "armijo:0.5",
     "armijo:c1", "armijo:max_backtracks=2.5", "newton", ""],
)
def test_malformed_step_rules_are_rejected(text):
    with pytest.raises(ConfigurationError):
        _parse_step(text, "step")


@pytest.mark.parametrize(
    "text",
    ["zeros:1", "uniform:1", "uniform:a,b", "gaussian", "gaussian:1,2", "sphere:1",
     "uniform:lo=1,hi=2"],
)
def test_malformed_x0_rules_are_rejected(text):
    with pytest.raises(ConfigurationError):
        _parse_rule(text, "x0 sampler", _X0_FORMS)
