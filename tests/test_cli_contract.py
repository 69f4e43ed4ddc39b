"""The CLI contract as a property: whatever the config, ``cli.main`` ends in one of three exit codes.

Every command runs on settings drawn per key from a pool built from the
key's grammar in ``config.py`` (a number, a list, a trig polynomial, a
matrix, a grid, a file or an output path): valid values, and the edge
values every number key is tried at (0, negatives, 1e-320, 1e308, nan, inf,
empty, a 20-digit integer), malformed terms and matrices, and files that
are valid, empty, garbled, missing or a directory; ``--config`` files are
also drawn as lines of random bytes.  Sizes stay small: matrix entries in
[-3, 3], ``n_max`` at most 8, at most 3,000 synthetic records and Schottky
words of length at most 3.  The contract: no exception escapes ``main``
and no warning is emitted; the exit code is 0, 1 or 2; a nonzero exit
prints exactly one line, to stderr, starting ``error: ``; the report of an
exit 0 holds no NaN or Infinity.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from friedzeta import cli
from friedzeta.cli import _KNOWN_KEYS
from friedzeta.kleinian import synthetic_spectrum, write_spectrum
from friedzeta.toral import SuspensionModel, ToralAutomorphism, orbit_table, write_orbit_dump
from friedzeta.trig import TrigPolynomial

EXAMPLES_PER_COMMAND = 60

# what every number key is also tried at
EDGES = ["0", "-1", "1e-320", "1e308", "nan", "inf", "-inf", "", "12345678901234567890", "x"]
# the edges of a size key, whose valid values stay small: no 20-digit integer, which is a valid size
SIZE_EDGES = [edge for edge in EDGES if edge != "12345678901234567890"] + ["2.5"]
TRIGS = ["const:1", "const:1 cos:1,0:0.05 sin:0,1:0.04", "const:2 cos:0,1:0.3"]
BAD_TRIGS = ["const:0", "const:-1", "cos:1,0:0.5", "const:1 cos:0,0:1", "const:1 cos:1:0.1", "const:1 cos:a,b:0.1",
             "const:1 tan:1,0:1", "const", "const:nan", "const:1e308", "const:1e-320",
             "const:1 cos:12345678901234567890,0:0.1", "const:1 sin:0,1:1e308", ""]
SCHOTTKY = ("3 0 0 0 0 0 0.3333333333333333 0;"
            "1.6666666666666667 0 1.3333333333333333 0 1.3333333333333333 0 1.6666666666666667 0")
INPUT_FILES = ["{empty}", "{garbled}", "{missing}", "{dir}", ""]

# key: (valid values, malformed values)
POOLS = {
    "model.matrix": (["2 1 1 1", "1 1 1 0", "0 1 1 3", "-2 -1 -1 -1", "3 2 1 1", "2,1,1,1"],
                     ["", "1 2 3", "1 2 3 4 5", "a b c d", "1.5 1 1 1", "nan 1 1 1", "1 0 0 1", "2 1 1 2",
                      "0 0 0 0", "12345678901234567890 1 1 0"]),
    "model.roof": (TRIGS, BAD_TRIGS),
    "model.time_change": (TRIGS[1:] + ["cos:1,0:0.2"], BAD_TRIGS),
    "rep.u_fraction": (["0", "0.5", "0.25", "-1", "1"], EDGES + ["2", "-1.5"]),
    "rep.fiber_exponents": (["", "0 0", "0 1", "1 1"], ["0", "1 2 3", "a b", "-1 0", "12345678901234567890 1"]),
    "policy.n_max": (["1", "2", "4", "6", "8"], SIZE_EDGES),
    "policy.j_max": (["1", "4", "16"], EDGES),
    "policy.p_max": (["0", "10", "60"], EDGES),
    "policy.entropy": (["0.5", "1", "2", "3"], EDGES),
    "policy.tail_tol": (["1e-12", "1e-6", "1e-30", "1"], EDGES),
    "policy.quad_subdiv": (["2", "4", "16"], EDGES + ["3"]),
    "tau.value": (["0", "0.05", "-0.05", "0.2"], EDGES),
    "tau.grid": (["0", "0.05", "0,0.1", "0:0.05:3", "-0.05,0.05"],
                 EDGES + ["0:1", "0:0.1:0", "0:0.1:-1", "0:0.1:100000", "a,b", "0:nan:2", ",", "0:1e308:3"]),
    "lambda.grid": (["4", "3,5", "4.5+1i", "0.5", "2;6", "2.5-3i"], EDGES + ["4,,5", "3+i", "1e308j"]),
    "lambda.value": (["3", "5", "3+2i", "0.5"], EDGES + ["3+nani"]),
    "selberg.mu": (["nu:1", "sigma:2", "nu:0*sigma:1", "nu:1*nu:1"],
                   ["", "nu", "x:1", "nu:a", "sigma:-1", "nu:12345678901234567890", "nu:1*", "nu:3"]),
    "zeta.allow_formal": (["true", "false", "1", "0"], ["yes", "", "False"]),
    "io.spectrum": (["{spectrum}"], INPUT_FILES + ["{dump}"]),
    "io.orbits": (["{dump}"], INPUT_FILES + ["{spectrum}"]),
    "io.out": (["{out}"], ["{dir}", "{missing}/out.txt", ""]),
    "io.report": (["{report}", ""], ["{dir}", "{missing}/report.json"]),
    "io.csv": (["{csv}", ""], ["{dir}", "{missing}/out.csv"]),
    "fried.tolerance": (["1e-6", "1", "1e-12"], EDGES),
    "factorize.k": (["0", "1,2", "0,1,2"], EDGES + ["0,0", "3", "0,,1"]),
    "factorize.p_grid": (["10", "10,20,40", "0", "60"], EDGES + ["10,a"]),
    "spectrum.h": (["2", "0.5", "1"], EDGES),
    "spectrum.count": (["0", "1", "20", "200", "3000"], SIZE_EDGES + ["12345678901234567890"]),
    "spectrum.seed": (["0", "7", "12345678901234567890"], SIZE_EDGES),
    "spectrum.min_length": (["1", "0", "0.5", "-1"], EDGES),
    "spectrum.kind": (["synthetic", "schottky"], ["bogus", ""]),
    "spectrum.generators": ([SCHOTTKY], ["", "1 2 3", "a b c d e f g h", "0 0 0 0 0 0 0 0",
                                         "1 0 0 0 0 0 1 0;1 0 0 0 0 0 1 0", SCHOTTKY.replace("3 0", "nan 0", 1),
                                         SCHOTTKY + ";"]),
    "spectrum.l_max": (["1", "2", "3"], SIZE_EDGES),
    "ledger.k_list": (["0", "0,1,2", "3"], EDGES + ["0,0"]),
    "ledger.h0": (["0", "1", "3"], EDGES),
    "ledger.h1": (["0", "2"], EDGES),
    "ledger.selberg_cases": (["", "2,1,1.0,1", "2,1,1.0,1;4,2,2.0,0"],
                             ["3,1,1,1", "2,0,1,1", "2,1,nan,1", "2,1", "a,b,c,d", ";",
                              "2,1,1e308,12345678901234567890"]),
}
assert POOLS.keys() == set().union(*_KNOWN_KEYS.values())
# always set: a run without the first three is refused at once, and without n_max reads to the default 12
USUALLY_SET = {"model.matrix", "lambda.grid", "io.out", "policy.n_max"}
# a run with them set reads another source, or writes where it is told
USUALLY_UNSET = {"io.spectrum", "io.orbits", "io.report", "io.csv", "selberg.mu", "policy.j_max", "spectrum.kind",
                 "spectrum.generators", "spectrum.l_max"}
CONFIGS = [None] * 8 + ["{config}", "{empty}", "{garbled}", "{missing}", "{dir}"]
# or a config file of random bytes, in lines
CONFIG_BYTES = st.lists(st.binary(max_size=30), min_size=1, max_size=3).map(b"\n".join)


def _valid(key):
    values = POOLS[key][0]
    if key in USUALLY_SET:
        return st.sampled_from(values)
    return st.sampled_from([None] * (3 * len(values) if key in USUALLY_UNSET else 1) + values)


# every key a value or unset, then up to two keys malformed; each command keeps the keys it accepts
SETTINGS = st.tuples(
    st.fixed_dictionaries({key: _valid(key) for key in sorted(POOLS)}),
    st.lists(st.sampled_from(sorted(POOLS)), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: st.sampled_from(POOLS[key][1]) for key in keys})),
).map(lambda drawn: {key: value for key, value in {**drawn[0], **drawn[1]}.items() if value is not None})


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The placeholders of the pools, as paths in one directory of this module."""
    root = tmp_path_factory.mktemp("contract")
    paths = {name: root / name for name in ("dump", "spectrum", "config", "empty", "garbled", "out", "report", "csv")}
    model = SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TrigPolynomial(1.0, ()))
    write_orbit_dump(paths["dump"], orbit_table(model, 5))
    write_spectrum(paths["spectrum"], synthetic_spectrum(2.0, 20, 7))
    paths["config"].write_text("# a config file\nlambda.grid = 4\n", encoding="ascii")
    paths["empty"].write_text("")
    paths["garbled"].write_bytes(b"\x00\xff\xfe garbled =\n1 2 x\n")
    (root / "dir").mkdir()
    return {**{name: str(path) for name, path in paths.items()}, "dir": str(root / "dir"),
            "missing": str(root / "missing"), "drawn": str(root / "drawn")}


def _refuse_constant(name):
    raise AssertionError(f"the report holds {name}")


@pytest.mark.parametrize("command", sorted(_KNOWN_KEYS))
@settings(max_examples=EXAMPLES_PER_COMMAND, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sets=SETTINGS, config=st.one_of(st.sampled_from(CONFIGS), CONFIG_BYTES))
# exp(h * l) is e^1.5 at l = 1.5 / h, but the first count exp(h * l) / l is past the float range
@example(sets={"spectrum.h": "1e308", "spectrum.min_length": "0"}, config=None)
# rows x j_max cells past the cap, refused before any array of j_max columns is built (a dump refuses j_max)
@example(sets={"io.spectrum": "{spectrum}", "policy.entropy": "1", "policy.j_max": "12345678901234567890",
               "lambda.grid": "4"}, config=None)
def test_every_run_exits_0_1_or_2_with_one_error_line(files, command, sets, config):
    if isinstance(config, bytes):
        with open(files["drawn"], "wb") as fh:
            fh.write(config)
        config = "{drawn}"
    argv = [command] + (["--config", config.format(**files)] if config else [])
    for key, value in sets.items():
        if key in _KNOWN_KEYS[command]:
            argv += ["--set", f"{key}={value.format(**files)}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        assert out.getvalue() == ""
        return
    assert err.getvalue() == ""
    report = dict(arg.split("=", 1) for arg in argv if "=" in arg).get("io.report")
    if report:
        with open(report, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = out.getvalue()
    json.loads(text, parse_constant=_refuse_constant)
