"""The spec reader behind --dist, --law and --system.

A spec that names a constructor with a parameter set it cannot take is
refused with DomainError in Python and exit 1 with an ``error:`` line on
the command line, never with a KeyError, TypeError or ValueError
traceback. A wrapped distribution reads as a component of ``indep(...)``.
"""

import json

import pytest

from fracpast import DomainError, Uniform, affine, distortion, independent_law, parse_spec
from fracpast.cli import _parse_law, _parse_system, main
from fracpast.multivariate import modified_bivariate_efcpe

READERS = {"dist": parse_spec, "law": _parse_law, "system": _parse_system}
ARGV = {
    "dist": lambda spec: ["measure", "--dist", spec, "--alpha", "0.5"],
    "law": lambda spec: ["bivariate", "--law", spec, "--alpha", "0.5"],
    "system": lambda spec: ["coherent", "--system", spec, "--dist", "uniform:a=1", "--alpha", "0.5"],
}
MALFORMED = [
    ("system", "koutofn:k=2"),
    ("system", "parallel:m=2"),
    ("system", "parallel"),
    ("system", "parallel:2.5"),
    ("system", "twooutoffour:n=3"),
    ("dist", "affine(uniform:a=1; scale=2, bogus=1)"),
    ("dist", "prhr(uniform:a=1; )"),
    ("law", "fgm:theta=abc"),
]


@pytest.mark.parametrize("kind, spec", MALFORMED)
def test_malformed_spec_raises_domain_error(kind, spec):
    with pytest.raises(DomainError):
        READERS[kind](spec)


@pytest.mark.parametrize("kind, spec", MALFORMED)
def test_malformed_spec_exits_one_with_an_error_line(capsys, kind, spec):
    code = main(ARGV[kind](spec))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kw", [{}, {"m": 2}, {"n": 2, "k": 1}])
def test_distortion_refuses_a_parameter_set_it_cannot_take(kw):
    with pytest.raises(DomainError):
        distortion("parallel", **kw)


def test_wrapped_component_of_an_independent_law(capsys):
    spec = "indep(affine(uniform:a=1; scale=2),uniform:a=1)"
    law = _parse_law(spec)
    assert repr(law.marginal_x) == repr(affine(Uniform(1.0), 2.0))
    assert repr(law.marginal_y) == repr(Uniform(1.0))
    expected = modified_bivariate_efcpe(independent_law(affine(Uniform(1.0), 2.0), Uniform(1.0)), 0.5)
    code = main(["bivariate", "--law", spec, "--kind", "modified", "--alpha", "0.5"])
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert code == 0
    assert row["value"] == expected.value
