"""``friedzeta._record`` against its oracle, the stdlib frozen dataclass, and the import cost it serves."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import friedzeta
from friedzeta import (ComplexLengthRecord, CyclicWord, SuspensionModel, ToralAutomorphism, TrigPolynomial, kleinian,
                       toral)
from friedzeta._record import FrozenRecordError, asdict, fields, record, replace
from friedzeta.toral import orbit_table


class Defaults:
    count: int
    label: str = "x"
    items: tuple = ()


class Normalised:
    angle: float
    turns: int = 0

    def __post_init__(self):
        object.__setattr__(self, "angle", self.angle % 360.0)


class Identity:
    values: list
    tag: str = ""


def twins(cls, eq=True):
    """``cls`` built twice from one body: as a record and as a frozen dataclass."""
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    return (record(type(cls.__name__, (), dict(body)), eq=eq),
            dataclasses.dataclass(frozen=True, eq=eq)(type(cls.__name__, (), dict(body))))


def assert_same(rec, dc):
    """The record ``rec`` and the dataclass ``dc`` look, compare and convert alike."""
    assert repr(rec) == repr(dc)
    assert list(vars(rec)) == list(vars(dc))  # field order: the CLI encodes __dict__
    assert fields(rec) == tuple(f.name for f in dataclasses.fields(dc))
    assert asdict(rec) == dataclasses.asdict(dc)


CALLS = [((3,), {}), ((), {"count": 3}), ((3, "y"), {}), ((3,), {"items": (1, 2), "label": "z"})]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_defaults_twin(args, kwargs):
    R, D = twins(Defaults)
    rec, dc = R(*args, **kwargs), D(*args, **kwargs)
    assert_same(rec, dc)
    assert hash(rec) == hash(dc)
    assert (rec == R(*args, **kwargs)) is (dc == D(*args, **kwargs)) is True
    assert (rec == R(4)) is (dc == D(4)) is False
    assert rec.__eq__(dc) is NotImplemented and rec != dc  # another class never compares equal
    assert_same(replace(rec, label="w"), dataclasses.replace(dc, label="w"))


def test_asdict_is_one_level_deep():
    # unlike the stdlib's, which converts records inside the values and deep-copies the rest
    R, _ = twins(Defaults)
    inner, values = R(2), [3]
    flat = asdict(R(1, items=(inner, values)))
    assert flat == {"count": 1, "label": "x", "items": (inner, values)}
    assert flat["items"][0] is inner and flat["items"][1] is values


def test_post_init_normalises_on_init_and_replace():
    R, D = twins(Normalised)
    rec, dc = R(370.0), D(370.0)
    assert rec.angle == 10.0
    assert_same(rec, dc)
    assert hash(rec) == hash(dc)
    assert_same(replace(rec, angle=-30.0), dataclasses.replace(dc, angle=-30.0))
    assert replace(rec, turns=2) == R(10.0, 2)


def test_eq_false_keeps_identity():
    R, D = twins(Identity, eq=False)
    rec, dc = R([1]), D([1])
    assert_same(rec, dc)
    assert rec != R([1]) and dc != D([1])
    assert rec == rec and hash(rec) == object.__hash__(rec)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                          # missing
    ((1,), {"size": 2}),               # unknown
    ((1,), {"count": 2}),              # repeated
    ((1, "a", (), 4), {}),             # too many
])
def test_bad_calls_raise_type_error(args, kwargs):
    for cls in twins(Defaults):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", [*twins(Defaults), *twins(Identity, eq=False)])
def test_set_and_delete_raise_attribute_error(cls):
    obj = cls(1)
    first = fields(cls)[0] if hasattr(cls, "__record_fields__") else dataclasses.fields(cls)[0].name
    for action in (lambda: setattr(obj, first, 2), lambda: delattr(obj, first), lambda: setattr(obj, "new", 0)):
        with pytest.raises(AttributeError):
            action()
    assert vars(obj)[first] == 1


def test_record_errors_are_frozen_record_errors():
    R, _ = twins(Defaults)
    with pytest.raises(FrozenRecordError, match="cannot assign to or delete field 'count'"):
        R(1).count = 2
    with pytest.raises(FrozenRecordError, match="cannot assign to or delete field 'count'"):
        del R(1).count


def test_package_hashes_are_the_field_tuple_hashes():
    cat = ToralAutomorphism(((2, 1), (1, 1)))
    roof = TrigPolynomial.cosine((1, 0), 0.05, constant=1.25)
    model = SuspensionModel(cat, roof)
    assert hash(cat) == hash((cat.matrix,))
    assert hash(roof) == hash((roof.constant, roof.terms))
    assert hash(model) == hash((cat, roof, None))


def test_equal_models_share_one_orbit_table_entry():
    def model():
        return SuspensionModel(ToralAutomorphism(((2, 1), (1, 1))), TrigPolynomial.cosine((0, 1), 0.03, constant=1.5))

    first, second = model(), model()
    assert first is not second and first == second and hash(first) == hash(second)
    table = orbit_table(first, 3)
    hits = toral._deepest_table.cache_info().hits
    assert orbit_table(second, 3) is table
    assert toral._deepest_table.cache_info().hits == hits + 1


def _fresh_interpreter(code: str) -> dict:
    """Run ``code`` in a new interpreter that finds this checkout's package; it prints one JSON value."""
    src = str(Path(friedzeta.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_skips_unused_stdlib_and_freezes():
    # the one parser reads a run, help and usage errors alike: argparse, gettext and locale are never loaded
    seen = _fresh_interpreter(
        "import contextlib, gc, io, json, os, sys; import friedzeta.cli\n"
        "loaded = [m for m in ('dataclasses', 'fractions', 'decimal', 'csv') if m in sys.modules]\n"
        "frozen = gc.get_freeze_count()\n"
        "code = friedzeta.cli.main(['ledger', '--set', 'ledger.h0=1', '--out', os.devnull])\n"
        "argvs = [['--help'], ['zeta-eval', '-h'], ['zeta-eval', '--he'], [], ['zeta-eval', '--c', 'x'], ['nope']]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [friedzeta.cli.main(argv) for argv in argvs]\n"
        "print(json.dumps({'loaded': loaded, 'frozen': frozen, 'code': code, 'codes': codes,"
        " 'parser': [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]}))")
    assert seen["loaded"] == []
    assert seen["frozen"] > 0
    assert seen["code"] == 0 and seen["codes"] == [0, 0, 0, 1, 1, 1]
    assert seen["parser"] == []


def test_library_import_does_not_freeze():
    assert _fresh_interpreter("import gc, json; import friedzeta.toral; print(json.dumps(gc.get_freeze_count()))") == 0


def test_commands_leave_the_kernel_oracle_unloaded():
    # friedzeta._kernels is the tests' Birkhoff-sum oracle: neither importing the CLI nor a toral command loads it
    seen = _fresh_interpreter(
        "import contextlib, io, json, os, sys; import friedzeta.cli\n"
        "imported = 'friedzeta._kernels' in sys.modules\n"
        "argv = ['zeta-eval', '--out', os.devnull]\n"
        "for item in ('model.matrix=2 1 1 1', 'model.roof=const:1 cos:1,0:0.05 sin:0,1:0.04',\n"
        "             'model.time_change=const:0 cos:0,1:0.3', 'tau.value=0.1', 'policy.n_max=10', 'lambda.grid=3'):\n"
        "    argv += ['--set', item]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = friedzeta.cli.main(argv)\n"
        "print(json.dumps([imported, code, 'friedzeta._kernels' in sys.modules]))")
    assert seen == [False, 0, False]


def test_cyclic_words_are_plain_records():
    # primitive is a function of the letters, so the generic equality and hash of both fields are those of the letters
    words = kleinian.enumerate_conjugacy_classes(2, 3)
    assert len(set(words)) == len({w.letters for w in words}) == len(words)
    assert all(w == CyclicWord(w.letters, w.primitive) and hash(w) == hash((w.letters, w.primitive)) for w in words)
    assert repr(CyclicWord((1, 2), False)) == "CyclicWord(letters=(1, 2), primitive=False)"


def test_complex_length_record_init_binds_like_the_generic_one():
    by_keyword = ComplexLengthRecord(length=2.0, theta=7.0, label="a")
    assert by_keyword == ComplexLengthRecord(2.0, 7.0, 1, "a")
    assert list(vars(by_keyword)) == list(fields(ComplexLengthRecord))
    assert by_keyword.theta == pytest.approx(7.0 - 2 * math.pi)
    for args, kwargs in [((2.0,), {}), ((2.0, 0.0), {"size": 1}), ((2.0, 0.0), {"theta": 1.0}),
                         ((2.0, 0.0, 1, "a", 1.0), {})]:
        with pytest.raises(TypeError):
            ComplexLengthRecord(*args, **kwargs)
