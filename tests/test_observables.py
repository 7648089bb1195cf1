"""Component and overlap densities, marginals, and overlap moments from
equilibrated populations."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from sparsespike import analytic, ensembles, observables, popdyn

W1 = ensembles.constant_weight(1.0)
GAUSS = ensembles.gaussian_spike(1.0)


class TestRhoTop:
    def test_isolated_node_atom_at_zero(self, theta_zero_poisson_pop, poisson_models):
        dm, wm, _ = poisson_models
        density = observables.component_densities(theta_zero_poisson_pop, dm, wm, GAUSS,
                                                  50_000, np.random.default_rng(2))[0]
        frac_zero = np.mean(density.samples == 0.0)
        p0 = dm.probs[0]
        assert abs(frac_zero - p0) < 3 * np.sqrt(p0 * (1 - p0) / 50_000)
        assert np.all(density.samples[density.k_tags == 0] == 0.0)

    def test_second_moment_is_one(self, poisson_solved, poisson_models):
        # E[u^2] under the component density is exactly the normalization
        # condition fixed by alpha1
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        density = observables.component_densities(pop, dm, wm, sm, 200_000, np.random.default_rng(3))[0]
        u2 = density.samples**2
        se = u2.std() / np.sqrt(u2.size)
        assert abs(u2.mean() - 1.0) < max(3 * se, 0.02)

    def test_histogram_mass_normalized(self, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        density = observables.component_densities(poisson_solved["pop"], dm, wm, sm,
                                                  20_000, np.random.default_rng(4))[0]
        assert abs(density.masses.sum() - 1.0) < 1e-12

    def test_degree_recombination(self, poisson_solved, poisson_models):
        # conditional densities recombined with the model p_k must reproduce
        # the unconditional density; conditionals come from a much larger
        # sample so the chi-square against the small sample is calibrated
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        d_a = observables.component_densities(pop, dm, wm, sm, 400_000, np.random.default_rng(5))[0]
        d_b = observables.component_densities(pop, dm, wm, sm, 20_000, np.random.default_rng(6))[0]
        edges = np.quantile(d_a.samples, np.linspace(0.02, 0.98, 21))
        kept = [k for k in range(dm.probs.size)
                if np.count_nonzero(d_a.k_tags == k) >= 200]
        expected_mass = np.zeros(edges.size - 1)
        for k in kept:
            sub = d_a.samples[d_a.k_tags == k]
            cond, _ = np.histogram(sub, bins=edges)
            expected_mass += dm.probs[k] * cond / sub.size
        sel = np.isin(d_b.k_tags, kept)
        observed, _ = np.histogram(d_b.samples[sel], bins=edges)
        exp_counts = expected_mass / expected_mass.sum() * observed.sum()
        _, pvalue = stats.chisquare(observed, exp_counts)
        assert pvalue > 1e-3


class TestRhoOv:
    def test_mean_matches_q(self, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        density = observables.component_densities(pop, dm, wm, sm, 400_000, np.random.default_rng(7))[1]
        moments = observables.overlap_moments(density)
        assert abs(moments.mean - pop.q) / pop.q < 0.01

    def test_squared_overlap_matches_analytic(self, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        ov_analytic = analytic.signal_and_overlap(pop.theta, dm, wm, sm)[1]
        density = observables.component_densities(pop, dm, wm, sm, 400_000, np.random.default_rng(8))[1]
        moments = observables.overlap_moments(density)
        assert abs(moments.overlap_sq - ov_analytic) / ov_analytic < 0.01

    def test_theta_zero_symmetric(self, theta_zero_poisson_pop, poisson_models):
        dm, wm, _ = poisson_models
        density = observables.component_densities(theta_zero_poisson_pop, dm, wm, GAUSS,
                                                  100_000, np.random.default_rng(9))[1]
        moments = observables.overlap_moments(density)
        assert abs(moments.mean) < 3 * moments.mean_se

    def test_consistency_triangle(self, poisson_solved, poisson_models):
        # popdyn's q, the overlap density's mean, and the instance-level overlap agree
        # pairwise within combined error bars at matched parameters
        from sparsespike import spectral
        from conftest import make_instance

        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        density = observables.component_densities(pop, dm, wm, sm, 200_000, np.random.default_rng(12))[1]
        mom = observables.overlap_moments(density)
        emp = []
        for i in range(5):
            a = make_instance(dm, wm, sm, 1000, pop.theta, seed=3141, index=i)
            rep = spectral.analyze_instance(a)
            emp.append(rep.overlap)
        emp_mean = float(np.mean(emp))
        emp_se = float(np.std(emp, ddof=1) / np.sqrt(len(emp)))
        q = pop.q
        assert abs(mom.mean - q) < 0.01 * q + 3 * mom.mean_se
        assert abs(emp_mean - q) < 0.01 * q + 3 * emp_se
        assert abs(emp_mean - mom.mean) < 0.01 * q + 3 * (emp_se + mom.mean_se)


class TestMarginals:
    def test_rr_step_cdf(self):
        pop = popdyn.Population(omega=np.full(1000, 3.0), h=np.zeros(1000),
                                q=0.0, lam=4.0, theta=0.0)
        marg = observables.marginals(pop)
        assert np.all(marg["omega_x"] == 3.0)
        assert marg["atom_mass"] == 0.0  # regular graphs have no degree-1 atom

    def test_poisson_atom_at_lambda(self, poisson_solved, poisson_models):
        dm, _, _ = poisson_models
        pop = poisson_solved["pop"]
        marg = observables.marginals(pop)
        r1 = dm.r[1]
        assert abs(marg["atom_mass"] - r1) < 3 * np.sqrt(r1 * (1 - r1) / pop.n_pop)

    def test_cdf_monotone(self, poisson_solved):
        marg = observables.marginals(poisson_solved["pop"])
        for key in ("omega", "h"):
            x, y = marg[f"{key}_x"], marg[f"{key}_cdf"]
            assert np.all(np.diff(x) >= 0)
            assert y[0] > 0 and abs(y[-1] - 1.0) < 1e-12


class TestOverlapMoments:
    def test_delta_distribution(self):
        samples = np.full(100, 0.7)
        density = observables.DensityEstimate(
            samples=samples, k_tags=np.zeros(100, int),
            bin_edges=np.array([0.6, 0.8]), masses=np.array([1.0]),
        )
        moments = observables.overlap_moments(density)
        assert moments.mean == pytest.approx(0.7)
        assert moments.overlap_sq == pytest.approx(0.49)
        assert moments.mean_se < 1e-15


class TestExports:
    def test_histogram_csv(self, tmp_path, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        density = observables.component_densities(poisson_solved["pop"], dm, wm, sm,
                                                  5_000, np.random.default_rng(10))[0]
        path = tmp_path / "hist.csv"
        observables.write_histogram_csv(density, str(path), header_lines=("test",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "bin_left,bin_right,mass"
        mass = sum(float(line.split(",")[2]) for line in lines[2:])
        assert abs(mass - 1.0) < 1e-9

    def test_samples_csv_cap(self, tmp_path, poisson_solved, poisson_models, monkeypatch):
        monkeypatch.setattr(observables, "_SAMPLES_CAP", 100)
        dm, wm, sm = poisson_models
        density = observables.component_densities(poisson_solved["pop"], dm, wm, sm,
                                                  5_000, np.random.default_rng(11))[0]
        path = tmp_path / "samples.csv"
        observables.write_samples_csv(density, str(path))
        assert len(path.read_text().splitlines()) == 101  # header + cap


def _random_population(n_pop=2000):
    """A population with omega in [2, 4]: at lam = 60 every denominator of
    a degree <= 20 node is at least 50."""
    rng = np.random.default_rng(21)
    return popdyn.Population(omega=rng.uniform(2.0, 4.0, n_pop), h=rng.standard_normal(n_pop),
                             q=0.9, lam=60.0, theta=6.0)


def _written_formulas(pop, dm, wm, sm, n, seed):
    """(k, u_top, u_ov, alpha1 terms, alpha2 terms) by the written formulas,
    on the draws that component_densities and alpha_pair make."""
    rng = np.random.default_rng(seed)
    k, s_w2, s_hw = popdyn._gather(popdyn._ratios(pop.omega, pop.h), dm, wm, n, rng, cavity=False)
    den = pop.lam - s_w2
    x = np.asarray(sm.sample(rng, size=n), float)
    top = (s_hw + pop.theta * pop.q * x) / den
    return k, top, x * top, top ** 2, pop.theta * sm.sigma_x2 * (1.0 / den)


class TestInPlaceFormulas:
    """The estimators overwrite the gathered sums in place; every value must
    equal the written formula on the same draws, bit for bit. 300,007
    samples on regular(16) noise (about 4.8e6 members) make ten gather
    pieces of 2^15 draws, the last of them partial."""

    N = 300_007
    DM = ensembles.regular(16)

    @pytest.mark.parametrize("wm", [W1, ensembles.rademacher_weight(0.5)], ids=["constant", "rademacher"])
    @pytest.mark.parametrize("sm", [GAUSS, ensembles.rademacher_spike(2.0)], ids=["gaussian", "rademacher"])
    def test_samples_and_alphas(self, wm, sm):
        pop = _random_population()
        k, top, ov, a1, a2 = _written_formulas(pop, self.DM, wm, sm, self.N, 4)
        got_top, got_ov = observables.component_densities(pop, self.DM, wm, sm, self.N, np.random.default_rng(4))
        assert np.array_equal(got_top.k_tags, k) and np.array_equal(got_ov.k_tags, k)
        assert got_top.samples.tobytes() == top.tobytes()
        assert got_ov.samples.tobytes() == ov.tobytes()
        n = a1.size
        expected = (float(a1.mean()), float(a1.std() / np.sqrt(n)),
                    float(a2.mean()), float(a2.std() / np.sqrt(n)))
        assert popdyn.alpha_pair(pop, self.DM, wm, sm, np.random.default_rng(4), self.N) == expected


class TestGatherMemory:
    """The Monte Carlo estimators form the member indices and terms a piece
    of draws at a time, hold the degrees in one byte, add (theta q) x a
    piece at a time and overwrite the gathered sums in place. At 4e5
    samples (about 1.2e6 members) the traced peak is about 25.8 bytes per
    sample for alpha_pair and for both densities: the degrees (1), the two
    gathered sums and the spike draws (8 each), and 0.8 for the ratio array
    of the 2e4 slots; at 2e6 samples it is about 25.2. Gathering a pass in
    parts and joining them took 40-42 at 2e6. Degrees in 8 bytes,
    full-length temporaries and arrays kept past their use took about 41,
    holding a pass's member indices about 55, and every member's terms at
    once about 120."""

    @pytest.mark.parametrize("name, n", [
        ("component_densities", 400_000), ("alpha_pair", 400_000),
        ("component_densities", 2_000_000), ("alpha_pair", 2_000_000),
    ], ids=["component_densities", "alpha_pair", "component_densities-2e6", "alpha_pair-2e6"])
    def test_peak_bytes_per_sample(self, name, n):
        dm, pop = ensembles.truncated_poisson(3.0, 8), _random_population(20_000)
        rng = np.random.default_rng(1)
        if name == "alpha_pair":
            run = lambda: popdyn.alpha_pair(pop, dm, W1, GAUSS, rng, n)
        else:
            run = lambda: observables.component_densities(pop, dm, W1, GAUSS, n, rng)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 30


def _csv_writer_reference(path, header_lines, names, rows):
    """The exporters' format written row by row with ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow(row)


EDGE_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324, 1e308,
               -1e308, 0.1, 1 / 3, 2.5e-17, 123456789.125]


class TestWriterBytes:
    """Each exporter writes exactly the bytes of a csv.writer reference."""

    HEADER = ("config: {\"a\": [1, 2]}", "seed: 7")

    @pytest.fixture
    def density(self):
        rng = np.random.default_rng(2)
        samples = np.concatenate([EDGE_FLOATS, rng.standard_normal(40)])
        edges = np.concatenate([[-np.inf, -0.0], np.sort(rng.standard_normal(8)), [5e-324, 1e308]])
        masses = np.concatenate([[0.0, -0.0, float("nan")], rng.random(8)])
        return observables.DensityEstimate(
            samples=samples, k_tags=np.arange(samples.size) % 21,
            bin_edges=edges, masses=masses,
        )

    @pytest.mark.parametrize("header", [(), HEADER])
    def test_histogram(self, tmp_path, density, header):
        observables.write_histogram_csv(density, str(tmp_path / "got.csv"), header)
        rows = [[repr(float(a)), repr(float(b)), repr(float(m))]
                for a, b, m in zip(density.bin_edges[:-1], density.bin_edges[1:], density.masses)]
        _csv_writer_reference(tmp_path / "ref.csv", header, ["bin_left", "bin_right", "mass"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("cap", [7, 100_000])
    def test_samples(self, tmp_path, density, cap, monkeypatch):
        monkeypatch.setattr(observables, "_SAMPLES_CAP", cap)
        observables.write_samples_csv(density, str(tmp_path / "got.csv"), self.HEADER)
        rows = [[repr(float(u)), int(k)] for u, k in zip(density.samples[:cap], density.k_tags[:cap])]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["u", "k"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + min(cap, density.samples.size)

    @pytest.mark.parametrize("n", [8192, 8193, 2 * 8192 + 5])
    def test_samples_across_row_pieces(self, tmp_path, n):
        # rows are written 8,192 at a time; the edge floats straddle a piece edge
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(n)
        samples[8192 - 6:8192 + 7] = EDGE_FLOATS[:n - 8192 + 6]
        density = observables.DensityEstimate(samples=samples, k_tags=rng.integers(0, 21, n),
                                              bin_edges=np.array([0.0, 1.0]), masses=np.array([1.0]))
        observables.write_samples_csv(density, str(tmp_path / "got.csv"), header_lines=self.HEADER)
        rows = [[repr(float(u)), int(k)] for u, k in zip(density.samples, density.k_tags)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["u", "k"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + n

    @pytest.mark.parametrize("stride", [1, 3])
    def test_cdf(self, tmp_path, stride):
        xs = np.concatenate([EDGE_FLOATS, np.linspace(-2.0, 2.0, 20)])
        ys = np.arange(1, xs.size + 1) / xs.size
        observables.write_cdf_csv(xs, ys, str(tmp_path / "got.csv"), self.HEADER, stride)
        rows = [[repr(float(x)), repr(float(y))] for x, y in zip(xs[::stride], ys[::stride])]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["x", "cdf"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + -(-xs.size // stride)

    def test_zero_rows(self, tmp_path):
        empty = observables.DensityEstimate(samples=np.array([]), k_tags=np.array([], np.int64),
                                            bin_edges=np.array([0.0]), masses=np.array([]))
        observables.write_samples_csv(empty, str(tmp_path / "s.csv"), header_lines=self.HEADER)
        observables.write_histogram_csv(empty, str(tmp_path / "h.csv"))
        _csv_writer_reference(tmp_path / "s_ref.csv", self.HEADER, ["u", "k"], [])
        _csv_writer_reference(tmp_path / "h_ref.csv", (), ["bin_left", "bin_right", "mass"], [])
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()
        assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "h_ref.csv").read_bytes()

    def test_histogram_across_row_pieces(self, tmp_path):
        # three columns, the edge floats in every column around row 8,192
        rng = np.random.default_rng(4)
        n = 8192 + 11
        edges = np.sort(rng.standard_normal(n + 1))
        masses = rng.random(n)
        edges[8192 - 6:8192 + 7] = EDGE_FLOATS
        masses[8192 - 7:8192 + 6] = EDGE_FLOATS[::-1]
        density = observables.DensityEstimate(samples=np.zeros(1), k_tags=np.zeros(1, np.int64),
                                              bin_edges=edges, masses=masses)
        observables.write_histogram_csv(density, str(tmp_path / "got.csv"), self.HEADER)
        rows = [[repr(float(a)), repr(float(b)), repr(float(m))] for a, b, m in zip(edges[:-1], edges[1:], masses)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["bin_left", "bin_right", "mass"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + n

    def test_cdf_across_row_pieces(self, tmp_path):
        xs = np.linspace(-3.0, 3.0, 2 * 8192 + 1)
        ys = np.arange(1, xs.size + 1) / xs.size
        xs[8192 - 6:8192 + 7] = EDGE_FLOATS
        ys[8192 - 7:8192 + 6] = EDGE_FLOATS
        observables.write_cdf_csv(xs, ys, str(tmp_path / "got.csv"), self.HEADER)
        rows = [[repr(float(x)), repr(float(y))] for x, y in zip(xs, ys)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["x", "cdf"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_small_tags_write_as_int64(self, tmp_path, density):
        # the estimators tag samples with uint8 degrees; the text must be
        # that of the same tags in int64
        for dtype in (np.uint8, np.int64):
            tagged = dataclasses.replace(density, k_tags=density.k_tags.astype(dtype))
            observables.write_samples_csv(tagged, str(tmp_path / f"{np.dtype(dtype).name}.csv"), self.HEADER)
        assert (tmp_path / "uint8.csv").read_bytes() == (tmp_path / "int64.csv").read_bytes()

    def test_int64_tags(self, tmp_path):
        info = np.iinfo(np.int64)
        tags = np.array([0, -1, info.max, info.min, 7, 2**53 + 1], np.int64)
        density = observables.DensityEstimate(samples=np.asarray(EDGE_FLOATS[:tags.size]), k_tags=tags,
                                              bin_edges=np.array([0.0, 1.0]), masses=np.array([1.0]))
        observables.write_samples_csv(density, str(tmp_path / "got.csv"), header_lines=self.HEADER)
        rows = [[repr(float(u)), int(k)] for u, k in zip(density.samples, tags)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["u", "k"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
