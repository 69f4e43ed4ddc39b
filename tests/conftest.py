import pytest

from friedzeta import Character, SuspensionModel, ToralAutomorphism, TrigPolynomial, TruncationPolicy, toral

CAT = ((2, 1), (1, 1))


@pytest.fixture
def cat():
    return ToralAutomorphism(CAT)


@pytest.fixture
def cat_model(cat):
    return SuspensionModel(cat, TrigPolynomial.const(1.0))


@pytest.fixture
def cat_family(cat):
    """Constant roof with the standard 0.05-amplitude time change."""
    return SuspensionModel(cat, TrigPolynomial.const(1.0), TrigPolynomial.cosine((1, 0), 0.05))


@pytest.fixture
def perturbed_model(cat):
    return SuspensionModel(cat, TrigPolynomial.cosine((1, 0), 0.05, constant=1.0))


@pytest.fixture
def rep_minus(cat):
    return Character.from_angle_fraction(0.5, cat.coker_orders, (0, 0))


@pytest.fixture
def policy14(cat_model):
    return TruncationPolicy(max_period=14, j_max=40, entropy=cat_model.default_entropy())


@pytest.fixture
def period_passes(monkeypatch):
    """The passes the test's tables run, in order: ``("union", [periods])`` for each ``toral._union_pass`` call (a
    request's first small periods) and ``("period", n)`` for each ``toral._period_pass`` call."""
    built = []
    period_pass, union_pass = toral._period_pass, toral._union_pass
    monkeypatch.setattr(toral, "_period_pass",
                        lambda auto, n, *roofs: built.append(("period", n)) or period_pass(auto, n, *roofs))
    monkeypatch.setattr(toral, "_union_pass", lambda auto, lattices, *roofs:
                        built.append(("union", list(lattices))) or union_pass(auto, lattices, *roofs))
    return built


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)``: the arguments of every later call of ``owner.name`` the test makes, in call order.

    A method's arguments include the instance.
    """
    def spy(owner, name):
        made = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: made.append(args) or original(*args, **kwargs))
        return made
    return spy
