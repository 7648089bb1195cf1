"""Population dynamics: update semantics, equilibration, alpha estimators,
and the one-pass check of (q, lambda)."""

import copy

import numpy as np
import pytest
from scipy import stats

from sparsespike import analytic, cli, ensembles, popdyn
from sparsespike.cli import derive_rng
from sparsespike.errors import (
    AlphaMismatch,
    ConfigError,
    MaxSweepsExceeded,
    NonPositiveDenominator,
    NonPositiveOmega,
)
from conftest import set_alphas, uniform_population

W1 = ensembles.constant_weight(1.0)
GAUSS = ensembles.gaussian_spike(1.0)


class _Built(Exception):
    pass


def initial_population(monkeypatch, n_pop, seed, lam, q, theta):
    """The population ``solve`` builds, copied as ``equilibrate`` receives it."""
    def capture(pop, *args):
        raise _Built(copy.deepcopy(pop))

    monkeypatch.setattr(popdyn, "equilibrate", capture)
    with pytest.raises(_Built) as built:
        popdyn.solve(theta, ensembles.regular(4), W1, GAUSS, n_pop, np.random.default_rng(seed), lam, q)
    return built.value.args[0]


class TestInit:
    def test_ranges_and_defaults(self, monkeypatch):
        # solve draws omega, then h, uniformly over their initial ranges,
        # as the first two draws of its stream
        pop = initial_population(monkeypatch, 10, 0, 10.0, 0.7, 6.0)
        assert pop.n_pop == 10
        assert np.all((pop.omega >= 5.0) & (pop.omega <= 20.0))
        assert np.all((pop.h >= 0.0) & (pop.h <= 10.0))
        assert (pop.lam, pop.q, pop.theta) == (10.0, 0.7, 6.0)
        rng = np.random.default_rng(0)
        assert pop.omega.tobytes() == rng.uniform(5.0, 20.0, 10).tobytes()
        assert pop.h.tobytes() == rng.uniform(0.0, 10.0, 10).tobytes()

    @pytest.mark.parametrize("name", ["alpha_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, 0.0, -1.0, "1", 10**400],
                             ids=["nan", "inf", "true", "zero", "negative", "string", "huge_int"])
    def test_config_rejects_bad_tolerance_and_start(self, name, value):
        # the tolerance is a constant: a config that sets it exits 2, naming it
        with pytest.raises(ConfigError, match=f"unknown popdyn field '{name}'"):
            cli.parse_config({"mode": "popdyn", "degree": {"kind": "regular", "c": 4}, "theta": [4.0],
                              "popdyn": {name: value}})

    def test_equal_seeds_identical(self, monkeypatch):
        a = initial_population(monkeypatch, 100, 4, 10.0, 0.5, 2.0)
        b = initial_population(monkeypatch, 100, 4, 10.0, 0.5, 2.0)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.h, b.h)


def _replay(dm, wm, b, n_slots, rng, cavity):
    """The gather's draws replayed in their documented order. A full-node
    pass draws every degree first, found by a plain search of the CDF; a
    cavity piece of ``PIECE`` draws (or fewer, the last) draws its degree
    counts as one multinomial over r_k and lays its draws out in increasing
    degree. Then, per piece and per member count t > 0, the members of the
    draws with t members and, unless the weight law is one point, then
    their weights. Returns k and each draw's member slots and weights (1.0
    for a one-point law)."""
    k = np.empty(b, np.intp) if cavity else np.searchsorted(dm._cdf, rng.random(b), side="right")
    members, weights = [()] * b, [()] * b
    for lo in range(0, b, PIECE):
        if cavity:
            k[lo:lo + PIECE] = np.repeat(np.arange(dm.r.size), rng.multinomial(min(PIECE, b - lo), dm.r))
        piece = k[lo:lo + PIECE] - cavity
        for t in range(1, int(piece.max()) + 1):
            pos = lo + np.flatnonzero(piece == t)
            if pos.size == 0:
                continue
            idx = rng.integers(0, n_slots, t * pos.size).reshape(t, pos.size)
            if wm.values.size == 1:
                wt = np.ones(idx.shape)
            else:
                wt = wm.sample(rng, size=idx.size).reshape(idx.shape)
            for j, p in enumerate(pos.tolist()):
                members[p], weights[p] = idx[:, j].tolist(), wt[:, j].tolist()
    return k, members, weights


def _member_sums(members, weights, term):
    """Each draw's sums of ``term(slot, w)`` over its own members, in member
    order."""
    s_w2, s_hw = np.zeros(len(members)), np.zeros(len(members))
    for p, (slots, ws) in enumerate(zip(members, weights)):
        for n, (i, w) in enumerate(zip(slots, ws)):
            t_w2, t_hw = term(i, w)
            s_w2[p], s_hw[p] = (t_w2, t_hw) if n == 0 else (s_w2[p] + t_w2, s_hw[p] + t_hw)
    return s_w2, s_hw


def _gather_per_draw(z, dm, wm, b, rng, cavity):
    """The gather by a loop over each draw's members, on the replayed draws:
    the terms W^2 (1/omega) and W (h/omega) are formed from the stored
    ratios z, and a one-point law's W scales each draw's sums once."""
    k, members, weights = _replay(dm, wm, b, z.size, rng, cavity)
    inv, ratio = z.real.tolist(), z.imag.tolist()
    s_w2, s_hw = _member_sums(members, weights, lambda i, w: (w * w * inv[i], w * ratio[i]))
    w = float(wm.values[0]) if wm.values.size == 1 else 1.0
    return k, s_w2 * (w * w), s_hw * w


RADEMACHER = ensembles.rademacher_weight(0.5)
PIECE = 1 << 15


def _random_slots(n=1000):
    setup = np.random.default_rng(11)
    return setup.uniform(0.5, 3.0, n), setup.standard_normal(n)


def _check_per_draw(dm, wm, b, seed, cavity):
    """The kernel against the per-draw loop on the same draws: equal k, sums
    equal bit for bit, and the random stream left in the same state."""
    z = popdyn._ratios(*_random_slots())
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    k, s_w2, s_hw = popdyn._gather(z, dm, wm, b, rng, cavity)
    k_ref, s_w2_ref, s_hw_ref = _gather_per_draw(z, dm, wm, b, ref, cavity)
    assert np.array_equal(k, k_ref)
    assert s_w2.tobytes() == s_w2_ref.tobytes()
    assert s_hw.tobytes() == s_hw_ref.tobytes()
    assert rng.random() == ref.random()
    return k


class TestGather:
    def test_member_counts(self):
        # p_1 = p_2 = 1/2 (so r_1 = 1/3, r_2 = 2/3), omega = h = 1 and W = 1:
        # every term of both sums is 1, so each sum counts its members
        dm = ensembles.degree_table([0.0, 0.5, 0.5])
        z = popdyn._ratios(np.ones(100), np.ones(100))
        rng = np.random.default_rng(0)
        for cavity in (False, True):
            k, s_w2, s_hw = popdyn._gather(z, dm, W1, 5000, rng, cavity)
            assert set(np.unique(k)) == {1, 2}
            assert np.array_equal(s_w2, k - float(cavity))
            assert np.array_equal(s_hw, s_w2)

    @pytest.mark.parametrize("k_max, dtype", [(8, np.uint8), (300, np.uint16)])
    @pytest.mark.parametrize("cavity", [True, False])
    def test_degrees_in_the_smallest_type(self, k_max, dtype, cavity):
        # k is the degree law's own draws (a full-node pass) or each piece's
        # multinomial counts laid out by degree (a cavity batch), held in
        # the smallest unsigned type that holds k_max
        dm = ensembles.truncated_poisson(3.0, k_max)
        z = popdyn._ratios(*_random_slots())
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        k = popdyn._gather(z, dm, W1, PIECE + 9, rng, cavity)[0]
        assert k.dtype == dtype
        assert np.array_equal(k, _replay(dm, W1, PIECE + 9, z.size, ref, cavity)[0])
        if not cavity:
            assert np.array_equal(k, dm.sample(np.random.default_rng(8), size=PIECE + 9))

    @pytest.mark.parametrize("w", [1.0, -0.7])
    @pytest.mark.parametrize("cavity", [True, False])
    def test_constant_weight_matches_full_weight_arrays(self, w, cavity):
        # a one-point law scales each sum once, by W^2 and W: bit for bit the
        # per-draw loop that does the same, and within a few ulps a loop
        # that weighs every member by an array of W
        dm, wm, b = ensembles.truncated_poisson(3.0, 8), ensembles.constant_weight(w), 4000
        _check_per_draw(dm, wm, b, 6, cavity)
        z = popdyn._ratios(*_random_slots())
        _, s_w2, s_hw = popdyn._gather(z, dm, wm, b, np.random.default_rng(6), cavity)
        _, members, _ = _replay(dm, wm, b, z.size, np.random.default_rng(6), cavity)
        arrays = [[w] * len(slots) for slots in members]
        inv, ratio = z.real.tolist(), z.imag.tolist()
        ref = _member_sums(members, arrays, lambda i, wi: (wi * wi * inv[i], wi * ratio[i]))
        size = _member_sums(members, arrays, lambda i, wi: (abs(wi * wi * inv[i]), abs(wi * ratio[i])))
        for got, want, scale in zip((s_w2, s_hw), ref, size):
            assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("cavity", [True, False])
    def test_unit_weight_sums_are_the_plain_ratios(self, cavity):
        # for W = 1 each term is 1.0/omega and h/omega, formed from the
        # slots themselves, so the sums are those of the kernel before it
        # read the stored ratios
        omega, h = _random_slots()
        dm = ensembles.truncated_poisson(3.0, 8)
        b = PIECE + 5
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        k, s_w2, s_hw = popdyn._gather(popdyn._ratios(omega, h), dm, W1, b, rng, cavity)
        k_ref, members, weights = _replay(dm, W1, b, omega.size, ref, cavity)
        om, hh = omega.tolist(), h.tolist()
        s_w2_ref, s_hw_ref = _member_sums(members, weights, lambda i, w: (1.0 / om[i], hh[i] / om[i]))
        assert np.array_equal(k, k_ref)
        assert s_w2.tobytes() == s_w2_ref.tobytes()
        assert s_hw.tobytes() == s_hw_ref.tobytes()


class TestGatherPieces:
    """A block is summed a piece of draws at a time, by member count; each
    draw's sums, and the random stream, must equal the per-draw loop's."""

    @pytest.mark.parametrize("wm", [W1, RADEMACHER], ids=["constant", "rademacher"])
    @pytest.mark.parametrize("cavity", [True, False])
    def test_three_pieces_and_a_remainder(self, wm, cavity):
        _check_per_draw(ensembles.truncated_poisson(3.0, 8), wm, 3 * PIECE + 7, 12, cavity)

    @pytest.mark.parametrize("wm", [W1, RADEMACHER], ids=["constant", "rademacher"])
    @pytest.mark.parametrize("cavity", [True, False])
    def test_zero_member_draws_on_piece_edges(self, wm, cavity):
        # degree 0 (a full node) or 1 (a cavity) has no members. A cavity
        # piece lays its draws out by degree, so its leaves open it and its
        # largest degree closes it; for a full-node pass pick the first seed
        # whose draws on both sides of each piece edge have none
        b = 3 * PIECE + 7
        starts = np.array([0, PIECE, 2 * PIECE, 3 * PIECE])
        if cavity:
            k = _check_per_draw(ensembles.degree_table([0.0, 0.9, 0.0, 0.1]), wm, b, 0, cavity)
            assert np.all(k[starts] == 1) and np.all(k[starts[1:] - 1] == 3)
            return
        dm = ensembles.degree_table([0.9, 0.0, 0.0, 0.1])
        edges = np.sort(np.concatenate([starts[1:] - 1, starts[1:]]))
        seed = next(s for s in range(1000) if np.all(dm.sample(np.random.default_rng(s), size=b)[edges] == 0))
        k = _check_per_draw(dm, wm, b, seed, cavity)
        assert np.all(k[edges] == 0)

    def test_block_without_members(self):
        leaf_only = ensembles.degree_table([0.0, 1.0])
        k = _check_per_draw(leaf_only, RADEMACHER, 2 * PIECE + 3, 0, cavity=True)
        assert np.all(k == 1)


def _halves_agree(member_counts):
    """Chi-square p-value that the member counts of a block's two halves
    come from one law: a kernel that returned its draws grouped by member
    count would put the small counts in the first half."""
    half = member_counts.size // 2
    table = np.array([np.bincount(part, minlength=member_counts.max() + 1)
                      for part in (member_counts[:half], member_counts[half:2 * half])])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


class TestDrawOrder:
    """A full-node pass returns its sums in i.i.d. draw order, because the
    densities and the samples CSVs read prefixes of it. A cavity piece
    draws its degree counts as one multinomial over r_k and lays its draws
    out in increasing degree, and a sweep writes a batch's sums to its
    slots in that order. omega = 1 and W = 1 make {W^2/omega} the member
    count."""

    DM = ensembles.truncated_poisson(4.0, 20)

    def test_full_node_block(self):
        # one piece: its halves split it, so grouping inside a piece shows
        z = popdyn._ratios(np.ones(1000), np.ones(1000))
        k, s_w2, _ = popdyn._gather(z, self.DM, W1, PIECE, np.random.default_rng(3), cavity=False)
        assert np.array_equal(s_w2, k)
        assert _halves_agree(k.astype(np.int64)) > 1e-3

    def test_cavity_block(self):
        # two pieces and a partial third, each laid out in increasing degree
        z = popdyn._ratios(np.ones(1000), np.ones(1000))
        k, s_w2, _ = popdyn._gather(z, self.DM, W1, 2 * PIECE + 100, np.random.default_rng(3), cavity=True)
        assert np.array_equal(s_w2, k - 1.0)
        for lo in range(0, k.size, PIECE):
            assert np.all(np.diff(k[lo:lo + PIECE].astype(np.int64)) >= 0)

    def test_cavity_counts_follow_r(self):
        # 64 batches of a sweep's size: the chi-square of each batch's degree
        # counts against r_k, summed over the batches, follows chi2 with 64
        # times (cells - 1) degrees of freedom; counts allotted by rounding
        # would read far too low, counts of a wrong law far too high.
        # Degrees of 12 and above share a cell (r_k below 1e-3 each above 12)
        z = popdyn._ratios(np.ones(1000), np.ones(1000))
        rng, b, top = np.random.default_rng(5), popdyn._CHUNK, 12
        r = np.append(self.DM.r[1:top], self.DM.r[top:].sum())
        stat = 0.0
        for _ in range(64):
            k = popdyn._gather(z, self.DM, W1, b, rng, cavity=True)[0]
            observed = np.bincount(np.minimum(k, top), minlength=top + 1)[1:]
            stat += float(np.sum((observed - b * r) ** 2 / (b * r)))
        p = stats.chi2.sf(stat, 64 * (r.size - 1))
        assert 1e-3 < p < 1 - 1e-3

    def test_one_sweep(self):
        # one batch of a sweep's 16,384 slots, so every slot reads its draw's
        # member count: the slots hold the counts in increasing order
        n = popdyn._CHUNK
        pop = popdyn.Population(omega=np.ones(n), h=np.zeros(n), q=0.5, lam=100.0, theta=0.0)
        popdyn._sweep(pop, self.DM, W1, None, np.random.default_rng(3))
        counts = pop.lam - pop.omega
        assert np.array_equal(counts, np.round(counts))
        assert np.all(np.diff(counts) >= 0) and counts[0] == 0 and counts[-1] > 5


class TestUpdateStep:
    """The replacement update of ``_sweep``."""

    def test_rr_fixed_point_preserved(self, monkeypatch):
        monkeypatch.setattr(popdyn, "_CHUNK", 64)  # sweeps of several batches, the last one partial
        # omega = 3 solves omega = lambda - (c-1)/omega at lambda = c = 4,
        # so any update reproduces omega 3 and a mean of the stored h values
        pop = popdyn.Population(omega=np.full(500, 3.0), h=np.full(500, 0.6),
                                q=0.5, lam=4.0, theta=0.0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            popdyn._sweep(pop, ensembles.regular(4), W1, GAUSS, rng)
        assert np.all(pop.omega == 3.0)
        assert np.allclose(pop.h, 0.6, atol=1e-12)

    def test_degree_one_sets_omega_to_lambda(self, monkeypatch):
        monkeypatch.setattr(popdyn, "_CHUNK", 16)
        leaf_only = ensembles.degree_table([0.0, 1.0])
        pop = popdyn.Population(omega=np.full(50, 7.7), h=np.zeros(50),
                                q=0.5, lam=9.25, theta=2.0)
        popdyn._sweep(pop, leaf_only, W1, GAUSS, np.random.default_rng(1))
        assert np.any(pop.omega == 9.25)  # empty sums give omega = lambda bit-exactly
        assert np.all((pop.omega == 9.25) | (pop.omega == 7.7))

    def test_every_slot_replaced_once(self, monkeypatch):
        monkeypatch.setattr(popdyn, "_CHUNK", 64)  # three full batches and a partial one
        # regular(2) noise: each update reads one member, so after one sweep
        # a slot still holds 1.0 only if no batch wrote it
        pop = popdyn.Population(omega=np.ones(3 * 64 + 5), h=np.zeros(3 * 64 + 5),
                                q=0.5, lam=3.0, theta=0.0)
        popdyn._sweep(pop, ensembles.regular(2), W1, None, np.random.default_rng(4))
        assert np.all(pop.omega != 1.0)

    @pytest.mark.parametrize("wm", [W1, RADEMACHER], ids=["constant", "rademacher"])
    def test_ratios_follow_every_batch(self, monkeypatch, wm):
        # the sweep keeps the ratios of the slots it rewrites; it must equal,
        # bit for bit, a sweep that forms them afresh before every batch
        monkeypatch.setattr(popdyn, "_CHUNK", 64)  # 8 full batches and a partial one
        dm = ensembles.truncated_poisson(3.0, 8)
        omega, h = _random_slots(8 * 64 + 9)
        pop = popdyn.Population(omega=omega + 4.0, h=h, q=0.8, lam=12.0, theta=2.0)
        ref = copy.deepcopy(pop)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(3):
            popdyn._sweep(pop, dm, wm, GAUSS, rng)
            for lo in range(0, ref.n_pop, 64):
                b = min(64, ref.n_pop - lo)
                _, s_w2, h_new = popdyn._gather(popdyn._ratios(ref.omega, ref.h), dm, wm, b, ref_rng, cavity=True)
                omega_new = ref.lam - s_w2
                assert omega_new.min() > 0
                ref.omega[lo:lo + b] = omega_new
                ref.h[lo:lo + b] = h_new + ref.theta * ref.q * np.asarray(GAUSS.sample(ref_rng, size=b), float)
        assert pop.omega.tobytes() == ref.omega.tobytes()
        assert pop.h.tobytes() == ref.h.tobytes()
        assert rng.random() == ref_rng.random()

    def test_non_positive_omega_raises(self, monkeypatch):
        monkeypatch.setattr(popdyn, "_CHUNK", 16)
        pop = popdyn.Population(omega=np.full(50, 0.1), h=np.zeros(50),
                                q=0.5, lam=1.0, theta=0.0)
        with pytest.raises(NonPositiveOmega):
            popdyn._sweep(pop, ensembles.regular(4), W1, GAUSS, np.random.default_rng(2))

    def test_theta_zero_stream_independent_of_spike_model(self):
        # with theta = 0 no spike draw happens, so omega AND h dynamics are
        # bit-identical whether or not a spike model is supplied
        dm = ensembles.truncated_poisson(4.0, 20)
        pop_a = uniform_population(2000, np.random.default_rng(7), 7.0)
        pop_b = uniform_population(2000, np.random.default_rng(7), 7.0)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        popdyn._sweep(pop_a, dm, W1, GAUSS, rng_a)
        popdyn._sweep(pop_b, dm, W1, None, rng_b)
        assert np.array_equal(pop_a.omega, pop_b.omega)
        assert np.array_equal(pop_a.h, pop_b.h)


class TestEquilibrate:
    def test_rr_collapse(self):
        # deterministic contraction: at lambda = c the omega population
        # collapses onto c - 1 to machine precision
        pop = uniform_population(5000, np.random.default_rng(0), 4.0)
        popdyn.equilibrate(pop, ensembles.regular(4), W1, None, np.random.default_rng(1))
        assert abs(pop.omega.mean() - 3.0) < 1e-6
        assert pop.omega.var() < 1e-12

    def test_non_positive_omega_keeps_lambda(self):
        # lambda = 2 is below the RR c=4 bulk edge 2 sqrt(3): equilibration
        # raises at the lambda it was given instead of moving it
        pop = uniform_population(5000, np.random.default_rng(0), 2.0)
        with pytest.raises(NonPositiveOmega, match="lambda=2 "):
            popdyn.equilibrate(pop, ensembles.regular(4), W1, None, np.random.default_rng(1))
        assert pop.lam == 2.0

    def test_max_sweeps(self, monkeypatch):
        monkeypatch.setattr(popdyn, "_MAX_SWEEPS", 3)
        dm = ensembles.truncated_poisson(4.0, 20)
        pop = uniform_population(2000, np.random.default_rng(0), 7.0, theta=6.0)
        with pytest.raises(MaxSweepsExceeded, match="no plateau within 3 sweeps"):
            popdyn.equilibrate(pop, dm, W1, GAUSS, np.random.default_rng(1))

    def test_diverging_population_stops_at_its_first_sweep(self):
        # h near 1e160 squares past the largest double: the h moments are
        # not finite after sweep 1, and the run stops there, with no
        # overflow warning (the test's warning filter turns one into an error)
        pop = uniform_population(2000, np.random.default_rng(0), 7.0, q=0.5, theta=6.0)
        pop.h *= 1e160
        with pytest.raises(MaxSweepsExceeded, match=r"diverged at sweep 1: mean_h, var_h not finite"):
            popdyn.equilibrate(pop, ensembles.truncated_poisson(4.0, 20), W1, GAUSS, np.random.default_rng(1))

    def test_degree_one_atom_mass(self, poisson_solved, poisson_models):
        dm, _, _ = poisson_models
        pop = poisson_solved["pop"]
        r1 = dm.r[1]
        freq = float(np.mean(pop.omega == pop.lam))
        se = np.sqrt(r1 * (1 - r1) / pop.n_pop)
        assert abs(freq - r1) < 3 * se


def synthetic_population(n, seed=0):
    rng = np.random.default_rng(seed)
    return popdyn.Population(omega=rng.gamma(4.0, 0.5, n), h=rng.standard_normal(n) + 0.3,
                             q=0.5, lam=6.0, theta=1.0)


def synthetic_traces(mom, se, shift, length, seed=0):
    """Each moment at its value plus Gaussian noise of 0.3 standard errors
    per sweep, and its last window moved by ``shift`` standard errors."""
    rng = np.random.default_rng(seed)
    w = popdyn._PLATEAU_WINDOW
    traces = {}
    for key in popdyn.MOMENT_KEYS:
        units = 0.3 * rng.standard_normal(length)
        units[length - w:] += shift
        traces[key] = list(mom[key] + se[key] * units)
    return traces


class TestPlateau:
    def test_moments_and_standard_errors(self):
        pop = synthetic_population(5000)
        mom, se = pop.moments()
        assert list(mom) == list(se) == list(popdyn.MOMENT_KEYS)
        for name, a in (("omega", pop.omega), ("h", pop.h)):
            var = a.var()
            m4 = np.mean((a - a.mean()) ** 4)
            assert mom["mean_" + name] == pytest.approx(a.mean(), rel=1e-12)
            assert mom["var_" + name] == pytest.approx(var, rel=1e-12)
            assert se["mean_" + name] == pytest.approx(np.sqrt(var / a.size), rel=1e-12)
            assert se["var_" + name] == pytest.approx(np.sqrt((m4 - var**2) / a.size), rel=1e-12)

    def test_stationary_trace_plateaus_at_two_windows(self):
        mom, se = synthetic_population(20_000).moments()
        w = popdyn._PLATEAU_WINDOW
        traces = synthetic_traces(mom, se, 0.0, 2 * w)
        assert popdyn._plateaued(traces, se)
        short = {key: trace[1:] for key, trace in traces.items()}
        assert not popdyn._plateaued(short, se)

    @pytest.mark.parametrize("key", popdyn.MOMENT_KEYS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_drift_of_five_standard_errors_does_not_plateau(self, key, sign):
        mom, se = synthetic_population(20_000).moments()
        traces = synthetic_traces(mom, se, 0.0, 2 * popdyn._PLATEAU_WINDOW)
        drifted = synthetic_traces(mom, se, sign * 5.0, 2 * popdyn._PLATEAU_WINDOW)
        assert not popdyn._plateaued({**traces, key: drifted[key]}, se)
        within = synthetic_traces(mom, se, sign * 2.0, 2 * popdyn._PLATEAU_WINDOW)
        assert popdyn._plateaued({**traces, key: within[key]}, se)

    def test_moments_below_zero_floor_plateau(self, theta_zero_poisson_pop):
        # at theta = 0 the h moments decay to zero: a tenfold drop between
        # the windows is far beyond their standard errors, yet passes below
        # the floor and fails above it
        mom, se = theta_zero_poisson_pop.moments()
        assert 10 * max(abs(mom["mean_h"]), mom["var_h"]) < popdyn._ZERO
        w = popdyn._PLATEAU_WINDOW
        traces = synthetic_traces(mom, se, 0.0, 2 * w)
        for key in ("mean_h", "var_h"):
            traces[key] = [10 * mom[key]] * w + [mom[key]] * w
            assert 9 * abs(mom[key]) > 3 * se[key]
        assert popdyn._plateaued(traces, se)
        above = {**traces, "mean_h": [1e3 * v for v in traces["mean_h"]]}
        assert not popdyn._plateaued(above, se)

    @pytest.mark.parametrize("shift", [0.0, 1.0, 2.5, 3.5, 5.0])
    def test_same_relative_trace_same_verdict_at_two_sizes(self, shift):
        verdicts = []
        for n in (20_000, 200_000):
            mom, se = synthetic_population(n).moments()
            traces = synthetic_traces(mom, se, shift, 3 * popdyn._PLATEAU_WINDOW)
            verdicts.append(popdyn._plateaued(traces, se))
        assert verdicts == [shift < 3.0] * 2


class TestAlphas:
    def test_solved_rr_alphas_near_one(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = rr_solved["pop"]
        a1, se1, a2, se2 = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(0), 400_000)[0]
        # population self-correlation inflates errors beyond iid MC bars a bit
        assert abs(a1 - 1.0) < max(3 * se1, 0.01)
        assert abs(a2 - 1.0) < max(3 * se2, 0.005)

    def test_alpha1_drops_when_lambda_inflated(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        pop.lam *= 2.0
        a1, _, _, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(1), 100_000)[0]
        assert a1 < 1.0

    def test_alpha2_linear_in_theta(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        _, _, base, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(2), 100_000)[0]
        pop.theta *= 2.0
        _, _, doubled, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(2), 100_000)[0]
        assert abs(doubled - 2.0 * base) < 1e-12

    def test_alpha2_vanishes_at_large_lambda(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        pop.lam = 1e6
        _, _, a2, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(3), 10_000)[0]
        assert a2 < 1e-4

    def test_non_positive_denominator(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        pop.lam = 0.5
        with pytest.raises(NonPositiveDenominator):
            popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(4), 10_000)


class TestSolve:
    def test_rr_warm_start_matches_closed_form(self, rr_solved):
        rep = rr_solved["report"]
        pop = rr_solved["pop"]
        assert abs(pop.lam - rep.lambda_top) / rep.lambda_top < 0.005
        assert abs(pop.q - np.sqrt(rep.overlap_sq)) / np.sqrt(rep.overlap_sq) < 0.01
        # Kesten-McKay collapse of the omega marginal
        om_bar = 0.5 * (pop.lam + np.sqrt(pop.lam**2 - 12.0))
        assert abs(pop.omega.mean() - om_bar) < 1e-6
        assert pop.omega.std() < 1e-9

    def test_deterministic_replay(self, poisson_models, monkeypatch):
        dm, wm, sm = poisson_models
        set_alphas(monkeypatch, 50_000, 0.05)
        out = []
        for _ in range(2):
            pop, q, lam, diag, _ = popdyn.solve(
                6.0, dm, wm, sm, 5000, np.random.default_rng(99), 6.685781102320185, 0.9376042707519016
            )
            out.append((pop.omega.copy(), pop.h.copy(), q, lam,
                        [(h["alpha1"], h["alpha2"]) for h in diag["history"]]))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])
        assert out[0][2:] == out[1][2:]

    @pytest.mark.parametrize("n_pop", [20_000, 200_000])
    def test_default_config_converges_at_two_sizes(self, n_pop):
        # truncated Poisson(3, 8), W = 1, theta = 6, at the analytic
        # (lambda, q): on this seed a plateau test with a fixed
        # relative tolerance of 1e-3 found no plateau in 600 sweeps at N_p 2e4
        dm = ensembles.truncated_poisson(3.0, 8)
        lam, ov = analytic.signal_and_overlap(6.0, dm, W1, GAUSS)
        q = float(np.sqrt(ov))
        _, _, _, diag, _ = popdyn.solve(
            6.0, dm, W1, GAUSS, n_pop,
            derive_rng(1004, 0, "popdyn"), lam, q,
        )
        assert diag["history"][0]["sweeps"] <= 60

    def test_history_carries_standard_errors(self, poisson_solved):
        diag = poisson_solved["diag"]
        for entry in diag["history"]:
            assert list(entry["moment_se"]) == list(popdyn.MOMENT_KEYS)
            assert all(v > 0 for v in entry["moment_se"].values())
        _, se = poisson_solved["pop"].moments()
        assert diag["history"][-1]["moment_se"] == se

    def test_unreachable_tolerance_raises_after_one_pass(self, rr_models, monkeypatch):
        # one equilibration and one alpha pair on one full-node pass, then
        # the error names both alphas with their standard errors; no second
        # pass
        calls = []
        for name in ("equilibrate", "alpha_pair", "_full_nodes"):
            fn = getattr(popdyn, name)
            monkeypatch.setattr(popdyn, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        rep = analytic.rr_report(4, 1.0, 4.0)
        set_alphas(monkeypatch, 10_000, 1e-9)
        with pytest.raises(AlphaMismatch, match=r"alpha1=\S+ \+/- \S+, alpha2=\S+ \+/- \S+"):
            popdyn.solve(4.0, *rr_models, 2000, np.random.default_rng(0), rep.lambda_top, np.sqrt(rep.overlap_sq))
        assert calls == ["equilibrate", "alpha_pair", "_full_nodes"]

    def test_solve_rejects_theta_zero(self, rr_models):
        dm, wm, sm = rr_models
        with pytest.raises(ValueError):
            popdyn.solve(0.0, dm, wm, sm, 20_000, np.random.default_rng(0), 4.0, 0.5)


class TestStructural:
    def test_rr_structural_is_c(self, rr_models):
        dm, wm, _ = rr_models
        floor = analytic.admissible_lambda_floor(dm, 1.0)
        assert abs(floor - 2 * np.sqrt(3)) < 1e-6
        lam, se, diag = popdyn.structural_lambda(dm, wm, 20_000, np.random.default_rng(5))
        assert abs(lam - 4.0) < 0.05

    def test_poisson_matches_diagonalization(self, poisson_models, poisson_structural_diag):
        # heterogeneous degrees correlate a message's h with its omega; a probe
        # that takes omega from another draw than h reads 5.07 here
        dm, wm, _ = poisson_models
        lam, se, diag = popdyn.structural_lambda(dm, wm, 30_000, np.random.default_rng(5))
        ref = poisson_structural_diag
        assert abs(lam - ref["mean"]) < ref["margin"]
        assert np.isfinite(se) and 0.0 < se < ref["margin"]
        assert len(diag["probes"]) == 13

    def test_unstable_probe_is_undone(self, poisson_models, poisson_structural_diag, monkeypatch):
        # a lower bracket of 2 (in place of the edge) sends the fourth probe of
        # [2, 21] to 4.375, where omega turns non-positive; the probes after it
        # start from the population as it was before, not from that probe's
        # partial sweep
        monkeypatch.setattr(analytic, "admissible_lambda_floor", lambda *models: 2.0)
        dm, wm, _ = poisson_models
        lam, se, diag = popdyn.structural_lambda(dm, wm, 30_000, np.random.default_rng(5))
        assert [p[0] for p in diag["probes"] if p[1] is None] == [4.375]
        assert abs(lam - poisson_structural_diag["mean"]) < poisson_structural_diag["margin"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k_max,expected", [(20, 4.7298), (1, 1.0)])
    def test_no_outlier_returns_lower_bracket(self, k_max, expected):
        # truncated Poisson(2, k_max): no probe grows and none is unstable.
        # k_max = 1 is a matching, whose top eigenvalue is W = 1: no cavity
        # draw has members, so mean h is 0 and log g = -inf
        dm = ensembles.truncated_poisson(2.0, k_max)
        floor = analytic.admissible_lambda_floor(dm, 1.0)
        lam, se, diag = popdyn.structural_lambda(dm, W1, 20_000, np.random.default_rng(2))
        assert (lam, se) == (floor, 0.0)
        assert abs(lam - expected) < 1e-4
        assert all(log_g < 0 for _, log_g, _ in diag["probes"])

    def test_unstable_without_growth_raises(self):
        # 3-regular noise with weights {0.5, 1.5}: omega turns non-positive
        # below the probes that decay
        dm, wm = ensembles.regular(3), ensembles.weight_table([0.5, 1.5], [0.5, 0.5])
        with pytest.raises(NonPositiveOmega):
            popdyn.structural_lambda(dm, wm, 20_000, np.random.default_rng(3))

    def test_noiseless_growth_fits_without_dividing_by_zero(self, rr_models, monkeypatch):
        # the same growth exp(4 - lambda) on every sweep, read over 16 sweeps
        # (16 equal logs sum exactly): every probe's standard error is 0, and
        # the line's root in the bracket [2 sqrt 3, 5] is exact
        def exact_growth(pop, *models_and_rng):
            pop.h *= np.exp(4.0 - pop.lam)

        monkeypatch.setattr(popdyn, "_sweep", exact_growth)
        monkeypatch.setattr(popdyn, "_GROWTH_READ", 16)
        dm, wm, _ = rr_models
        with np.errstate(divide="raise", invalid="raise"):
            lam, se, diag = popdyn.structural_lambda(dm, wm, 2, np.random.default_rng(0))
        assert [p[2] for p in diag["probes"]] == [0.0] * 13
        assert abs(lam - 4.0) < 1e-12
        assert 0.0 <= se < 1e-9

    def test_sign_mixed_weights_return_the_edge(self, rr_models, monkeypatch):
        # no Perron outlier: the spectral edge 2 sqrt((c-1) E[W^2]) = sqrt(3),
        # and no probe run
        def no_sweep(*args):
            raise AssertionError("sign-mixed weights ran a probe")

        monkeypatch.setattr(popdyn, "_sweep", no_sweep)
        dm, _, _ = rr_models
        wm = ensembles.rademacher_weight(0.5)
        lam, se, diag = popdyn.structural_lambda(dm, wm, 1000, np.random.default_rng(0))
        assert (lam, se, diag) == (analytic.admissible_lambda_floor(dm, wm.second_moment_w), 0.0, {"probes": []})
        assert lam == pytest.approx(np.sqrt(3.0))
