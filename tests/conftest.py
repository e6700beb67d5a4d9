import pytest

from wilsonlab.bernoulli import BernoulliTable


@pytest.fixture(scope="session")
def table():
    """Exact oracle covering every desk-scale test: index 401 reaches
    4(p-1) for p <= 97, the folklore sweep to 400, and S_200."""
    return BernoulliTable.build(401)


@pytest.fixture(scope="session")
def wieferich_table():
    """B_0..B_1090: every B_{2k}, 2k <= p - 3, that decides the irregularity
    of the primes to 1093, the base-2 Wieferich prime."""
    return BernoulliTable.build(1090)


@pytest.fixture(scope="session")
def small_table():
    return BernoulliTable.build(60)


@pytest.fixture
def power_sum_runs(monkeypatch):
    """Empty padic.work's slot and record every power list the power-sum
    memo computes, as (kind, n, p, modulus) with kind "sieve" or "step". A
    call at another prime drops the slot anyway; this empties the held
    prime's too."""
    from wilsonlab import modular, padic

    runs = []
    sieve, step = modular._sieve_powers, modular._step_powers

    def sieved(n, m, spf):
        runs.append(("sieve", n, len(spf), m))
        return sieve(n, m, spf)

    def stepped(n, below, t, m, reduce):
        runs.append(("step", n, len(t), m))
        return step(n, below, t, m, reduce)

    padic.work.cache_clear()
    monkeypatch.setattr(modular, "_sieve_powers", sieved)
    monkeypatch.setattr(modular, "_step_powers", stepped)
    return runs
