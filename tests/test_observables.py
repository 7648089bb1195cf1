"""Component and overlap densities, the CDF and histogram exports, and
overlap moments from equilibrated populations."""

import csv
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from sparsespike import analytic, cli, ensembles, observables, popdyn

W1 = ensembles.constant_weight(1.0)
GAUSS = ensembles.gaussian_spike(1.0)


def densities(pop, dm, wm, sm, n, rng):
    """(u_top, u_ov, k) of one full-node pass of n draws over ``pop``."""
    return observables.component_densities(*popdyn.alpha_pair(pop, dm, wm, sm, rng, n)[1], n)


class TestRhoTop:
    def test_isolated_node_atom_at_zero(self, theta_zero_poisson_pop, poisson_models):
        dm, wm, _ = poisson_models
        top, _, k = densities(theta_zero_poisson_pop, dm, wm, GAUSS,
                              50_000, np.random.default_rng(2))
        frac_zero = np.mean(top == 0.0)
        p0 = dm.probs[0]
        assert abs(frac_zero - p0) < 3 * np.sqrt(p0 * (1 - p0) / 50_000)
        assert np.all(top[k == 0] == 0.0)

    def test_second_moment_is_one(self, poisson_solved, poisson_models):
        # E[u^2] under the component density is exactly the normalization
        # condition fixed by alpha1
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        top = densities(pop, dm, wm, sm, 200_000, np.random.default_rng(3))[0]
        u2 = top**2
        se = u2.std() / np.sqrt(u2.size)
        assert abs(u2.mean() - 1.0) < max(3 * se, 0.02)

    def test_histogram_mass_normalized(self, tmp_path, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        top = densities(poisson_solved["pop"], dm, wm, sm,
                        20_000, np.random.default_rng(4))[0]
        observables.write_histogram_csv(top, str(tmp_path / "hist.csv"))
        masses = np.loadtxt(tmp_path / "hist.csv", delimiter=",", skiprows=1, usecols=2)
        assert abs(masses.sum() - 1.0) < 1e-12

    def test_degree_recombination(self, poisson_solved, poisson_models):
        # conditional densities recombined with the model p_k must reproduce
        # the unconditional density; conditionals come from a much larger
        # sample so the chi-square against the small sample is calibrated
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        u_a, _, k_a = densities(pop, dm, wm, sm, 400_000, np.random.default_rng(5))
        u_b, _, k_b = densities(pop, dm, wm, sm, 20_000, np.random.default_rng(6))
        edges = np.quantile(u_a, np.linspace(0.02, 0.98, 21))
        kept = [k for k in range(dm.probs.size)
                if np.count_nonzero(k_a == k) >= 200]
        expected_mass = np.zeros(edges.size - 1)
        for k in kept:
            sub = u_a[k_a == k]
            cond, _ = np.histogram(sub, bins=edges)
            expected_mass += dm.probs[k] * cond / sub.size
        sel = np.isin(k_b, kept)
        observed, _ = np.histogram(u_b[sel], bins=edges)
        exp_counts = expected_mass / expected_mass.sum() * observed.sum()
        _, pvalue = stats.chisquare(observed, exp_counts)
        assert pvalue > 1e-3


class TestRhoOv:
    def test_mean_matches_q(self, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        ov = densities(pop, dm, wm, sm, 400_000, np.random.default_rng(7))[1]
        moments = observables.overlap_moments(ov)
        assert abs(moments.mean - pop.q) / pop.q < 0.01

    def test_squared_overlap_matches_analytic(self, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        ov_analytic = analytic.signal_and_overlap(pop.theta, dm, wm, sm)[1]
        ov = densities(pop, dm, wm, sm, 400_000, np.random.default_rng(8))[1]
        moments = observables.overlap_moments(ov)
        assert abs(moments.overlap_sq - ov_analytic) / ov_analytic < 0.01

    def test_theta_zero_symmetric(self, theta_zero_poisson_pop, poisson_models):
        dm, wm, _ = poisson_models
        ov = densities(theta_zero_poisson_pop, dm, wm, GAUSS,
                       100_000, np.random.default_rng(9))[1]
        moments = observables.overlap_moments(ov)
        assert abs(moments.mean) < 3 * moments.mean_se

    def test_consistency_triangle(self, poisson_solved, poisson_models):
        # popdyn's q, the overlap density's mean, and the instance-level overlap agree
        # pairwise within combined error bars at matched parameters
        from sparsespike import spectral
        from conftest import make_instance

        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        ov = densities(pop, dm, wm, sm, 200_000, np.random.default_rng(12))[1]
        mom = observables.overlap_moments(ov)
        emp = []
        for i in range(5):
            a = make_instance(dm, wm, sm, 1000, pop.theta, seed=3141, index=i)
            rep = spectral.analyze_instance(a, np.random.default_rng(0))
            emp.append(rep.overlap)
        emp_mean = float(np.mean(emp))
        emp_se = float(np.std(emp, ddof=1) / np.sqrt(len(emp)))
        q = pop.q
        assert abs(mom.mean - q) < 0.01 * q + 3 * mom.mean_se
        assert abs(emp_mean - q) < 0.01 * q + 3 * emp_se
        assert abs(emp_mean - mom.mean) < 0.01 * q + 3 * (emp_se + mom.mean_se)


def _run_densities(tmp_path, monkeypatch, pop, degree):
    """``cli.run_densities`` on ``pop`` in place of its solve, with a
    1,000-draw full-node pass over it: the run's result and the (x, cdf)
    rows of its omega and h CDF files."""
    monkeypatch.setattr(cli, "_solve", lambda cfg, i, theta, models, samples: (
        pop, pop.q, pop.lam, {}, popdyn.alpha_pair(pop, *models, np.random.default_rng(0), samples)[1]))
    cfg = cli.parse_config({"mode": "densities", "degree": degree, "theta": [6.0], "out_dir": str(tmp_path),
                            "density_samples": 1000})
    result = cli.run_densities(cfg)
    cdfs = {}
    for key in ("omega", "h"):
        lines = [line for line in (tmp_path / f"{key}_cdf.csv").read_text().splitlines() if line[0] != "#"]
        assert lines[0] == "x,cdf"
        cdfs[key] = np.array([line.split(",") for line in lines[1:]], float).T
    return result, cdfs


class TestMarginals:
    def test_rr_step_cdf(self, tmp_path, monkeypatch):
        pop = popdyn.Population(omega=np.full(1000, 3.0), h=np.zeros(1000),
                                q=0.0, lam=4.0, theta=0.0)
        result, cdfs = _run_densities(tmp_path, monkeypatch, pop, {"kind": "regular", "c": 4})
        assert np.all(cdfs["omega"][0] == 3.0)
        assert result["atom_mass"] == 0.0  # regular graphs have no degree-1 atom

    def test_poisson_atom_at_lambda(self, tmp_path, monkeypatch, poisson_solved, poisson_models):
        dm, _, _ = poisson_models
        pop = poisson_solved["pop"]
        result = _run_densities(tmp_path, monkeypatch, pop, {"kind": "truncated_poisson", "cbar": 4.0, "k_max": 20})[0]
        r1 = dm.r[1]
        assert abs(result["atom_mass"] - r1) < 3 * np.sqrt(r1 * (1 - r1) / pop.n_pop)

    def test_cdf_monotone(self, tmp_path, monkeypatch, poisson_solved):
        pop = poisson_solved["pop"]
        monkeypatch.setattr(observables, "_CDF_ROWS", pop.n_pop)  # every row, up to the last
        cdfs = _run_densities(tmp_path, monkeypatch, pop, {"kind": "truncated_poisson", "cbar": 4.0, "k_max": 20})[1]
        for x, y in cdfs.values():
            assert x.size == pop.n_pop
            assert np.all(np.diff(x) >= 0)
            assert y[0] > 0 and abs(y[-1] - 1.0) < 1e-12


class TestOverlapMoments:
    def test_delta_distribution(self):
        moments = observables.overlap_moments(np.full(100, 0.7))
        assert moments.mean == pytest.approx(0.7)
        assert moments.overlap_sq == pytest.approx(0.49)
        assert moments.mean_se < 1e-15


class TestExports:
    def test_histogram_csv(self, tmp_path, poisson_solved, poisson_models):
        dm, wm, sm = poisson_models
        top = densities(poisson_solved["pop"], dm, wm, sm,
                        5_000, np.random.default_rng(10))[0]
        path = tmp_path / "hist.csv"
        observables.write_histogram_csv(top, str(path), header_lines=("test",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "bin_left,bin_right,mass"
        mass = sum(float(line.split(",")[2]) for line in lines[2:])
        assert abs(mass - 1.0) < 1e-9

    def test_samples_csv_cap(self, tmp_path, poisson_solved, poisson_models, monkeypatch):
        monkeypatch.setattr(observables, "_SAMPLES_CAP", 100)
        dm, wm, sm = poisson_models
        top, _, k = densities(poisson_solved["pop"], dm, wm, sm,
                              5_000, np.random.default_rng(11))
        path = tmp_path / "samples.csv"
        observables.write_samples_csv(top, k, str(path))
        assert len(path.read_text().splitlines()) == 101  # header + cap


def _random_population(n_pop=2000):
    """A population with omega in [2, 4]: at lam = 60 every denominator of
    a degree <= 20 node is at least 50."""
    rng = np.random.default_rng(21)
    return popdyn.Population(omega=rng.uniform(2.0, 4.0, n_pop), h=rng.standard_normal(n_pop),
                             q=0.9, lam=60.0, theta=6.0)


def _written_formulas(pop, dm, wm, sm, n, seed):
    """(k, u_top, u_ov, alpha1 terms, alpha2 terms) by the written formulas,
    on the draws of one full-node pass."""
    rng = np.random.default_rng(seed)
    k, s_w2, s_hw = popdyn._gather(popdyn._ratios(pop.omega, pop.h), dm, wm, n, rng, cavity=False)
    den = pop.lam - s_w2
    x = np.asarray(sm.sample(rng, size=n), float)
    top = (s_hw + pop.theta * pop.q * x) / den
    return k, top, x * top, top ** 2, pop.theta * sm.sigma_x2 / den


class TestInPlaceFormulas:
    """The estimators overwrite the gathered sums in place; every sample
    must equal the written formula on the same draws, bit for bit, and
    each alpha and its standard error numpy's mean and std of the written
    terms to 1e-12, since they are summed a piece at a time. 300,007
    samples on regular(16) noise (about 4.8e6 members) make ten gather
    pieces of 2^15 draws, the last of them partial; the densities read the
    first 200,000 of the pass the alphas read."""

    N = 300_007
    DM = ensembles.regular(16)

    @pytest.mark.parametrize("wm", [W1, ensembles.rademacher_weight(0.5)], ids=["constant", "rademacher"])
    @pytest.mark.parametrize("sm", [GAUSS, ensembles.rademacher_spike(2.0)], ids=["gaussian", "rademacher"])
    def test_samples_and_alphas(self, wm, sm):
        pop = _random_population()
        k, top, ov, a1, a2 = _written_formulas(pop, self.DM, wm, sm, self.N, 4)
        alphas, nodes = popdyn.alpha_pair(pop, self.DM, wm, sm, np.random.default_rng(4), self.N)
        got_top, got_ov, got_k = observables.component_densities(*nodes, 200_000)
        assert np.array_equal(got_k, k[:200_000])
        assert got_top.tobytes() == top[:200_000].tobytes()
        assert got_ov.tobytes() == ov[:200_000].tobytes()
        n = a1.size
        expected = (a1.mean(), a1.std() / np.sqrt(n), a2.mean(), a2.std() / np.sqrt(n))
        assert alphas == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestGatherMemory:
    """The Monte Carlo estimators form the member indices and terms a piece
    of draws at a time, hold the degrees in one byte, add (theta q) x a
    piece at a time, overwrite the gathered sums in place and sum the
    alpha terms a piece at a time. At 4e5 samples (about 1.2e6 members)
    the traced peak is about 26.3 bytes per sample for alpha_pair: the
    degrees (1), the two gathered sums and the spike draws (8 each), and
    0.8 for the ratio array of the 2e4 slots. The same pass read by both
    densities and binned into their histograms peaks at the same 26.4, in
    the pass; at 2e6 samples both are about 25.3. Forming alpha1 with numpy's mean and std
    of a full-length u^2 while the pass is kept took about 41. Gathering a
    pass in parts and joining them took 40-42 at 2e6. Degrees in 8 bytes,
    full-length temporaries and arrays kept past their use took about 41,
    holding a pass's member indices about 55, and every member's terms at
    once about 120."""

    @pytest.mark.parametrize("name, n", [
        ("component_densities", 400_000), ("alpha_pair", 400_000),
        ("component_densities", 2_000_000), ("alpha_pair", 2_000_000),
    ], ids=["component_densities", "alpha_pair", "component_densities-2e6", "alpha_pair-2e6"])
    def test_peak_bytes_per_sample(self, tmp_path, name, n):
        dm, pop = ensembles.truncated_poisson(3.0, 8), _random_population(20_000)
        rng = np.random.default_rng(1)
        if name == "alpha_pair":
            run = lambda: popdyn.alpha_pair(pop, dm, W1, GAUSS, rng, n)
        else:
            run = lambda: [observables.write_histogram_csv(u, str(tmp_path / "hist.csv"))
                           for u in densities(pop, dm, W1, GAUSS, n, rng)[:2]]
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
    def samples(self):
        rng = np.random.default_rng(2)
        return np.concatenate([EDGE_FLOATS, rng.standard_normal(40)])

    @pytest.mark.parametrize("header", [(), HEADER])
    def test_histogram(self, tmp_path, header):
        rng = np.random.default_rng(2)
        edges = np.concatenate([[-np.inf, -0.0], np.sort(rng.standard_normal(8)), [5e-324, 1e308]])
        masses = np.concatenate([[0.0, -0.0, float("nan")], rng.random(8)])
        observables._write_rows(str(tmp_path / "got.csv"), header, ("bin_left", "bin_right", "mass"),
                                (edges[:-1], edges[1:], masses))
        rows = [[repr(float(a)), repr(float(b)), repr(float(m))]
                for a, b, m in zip(edges[:-1], edges[1:], masses)]
        _csv_writer_reference(tmp_path / "ref.csv", header, ["bin_left", "bin_right", "mass"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_histogram_of_samples(self, tmp_path, samples):
        # numpy's Freedman-Diaconis bins of the samples, each bin's share of them
        small = samples[np.abs(samples) < 10]  # a range of a few dozen bins
        observables.write_histogram_csv(small, str(tmp_path / "got.csv"), self.HEADER)
        counts, edges = np.histogram(small, bins="fd")
        rows = [[repr(float(a)), repr(float(b)), repr(float(c / small.size))]
                for a, b, c in zip(edges[:-1], edges[1:], counts)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["bin_left", "bin_right", "mass"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_histogram_bins_capped(self, tmp_path):
        # 123456789.125 among 52 standard normals: bins="fd" would take about
        # 1.7e8 bins, 1.4 GB of edges alone; the writer takes _MAX_BINS of
        # them and peaks at about 2.8 MB, mostly the text of 8,192 rows
        samples = np.random.default_rng(2).standard_normal(53)
        samples[12] = 123456789.125
        tracemalloc.start()
        try:
            observables.write_histogram_csv(samples, str(tmp_path / "got.csv"), self.HEADER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counts, edges = np.histogram(samples, bins=observables._MAX_BINS)
        rows = [[repr(float(a)), repr(float(b)), repr(float(c / samples.size))]
                for a, b, c in zip(edges[:-1], edges[1:], counts)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["bin_left", "bin_right", "mass"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + observables._MAX_BINS
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("cap", [7, 100_000])
    def test_samples(self, tmp_path, samples, cap, monkeypatch):
        monkeypatch.setattr(observables, "_SAMPLES_CAP", cap)
        k = np.arange(samples.size) % 21
        observables.write_samples_csv(samples, k, str(tmp_path / "got.csv"), self.HEADER)
        rows = [[repr(float(u)), int(d)] for u, d in zip(samples[:cap], k[:cap])]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["u", "k"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + min(cap, samples.size)

    @pytest.mark.parametrize("n", [8192, 8193, 2 * 8192 + 5])
    def test_samples_across_row_pieces(self, tmp_path, n):
        # rows are written 8,192 at a time; the edge floats straddle a piece edge
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(n)
        samples[8192 - 6:8192 + 7] = EDGE_FLOATS[:n - 8192 + 6]
        k = rng.integers(0, 21, n)
        observables.write_samples_csv(samples, k, str(tmp_path / "got.csv"), header_lines=self.HEADER)
        rows = [[repr(float(u)), int(d)] for u, d in zip(samples, k)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["u", "k"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + n

    @pytest.mark.parametrize("stride", [1, 3])
    def test_cdf(self, tmp_path, monkeypatch, stride):
        # the sorted values against every stride-th entry of the full grid i/n
        xs = np.concatenate([EDGE_FLOATS, np.linspace(-2.0, 2.0, 20)])
        monkeypatch.setattr(observables, "_CDF_ROWS", xs.size // stride)
        assert xs.size // observables._CDF_ROWS == stride
        observables.write_cdf_csv(xs, str(tmp_path / "got.csv"), self.HEADER)
        ys = np.arange(1, xs.size + 1) / xs.size
        rows = [[repr(float(x)), repr(float(y))] for x, y in zip(np.sort(xs)[::stride], ys[::stride])]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["x", "cdf"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + -(-xs.size // stride)

    @pytest.mark.parametrize("n", [10_000, 19_999, 20_000, 29_999, 200_000])
    def test_cdf_thinned_to_about_10000_rows(self, tmp_path, n):
        # stride max(1, n // 10,000): every stride-th row from the first
        xs = np.random.default_rng(5).standard_normal(n)
        observables.write_cdf_csv(xs, str(tmp_path / "got.csv"))
        stride = max(1, n // 10_000)
        ys = np.arange(1, n + 1) / n
        rows = [[repr(float(x)), repr(float(y))] for x, y in zip(np.sort(xs)[::stride], ys[::stride])]
        _csv_writer_reference(tmp_path / "ref.csv", (), ["x", "cdf"], rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + -(-n // stride)

    def test_zero_rows(self, tmp_path):
        empty = np.array([])
        observables.write_samples_csv(empty, np.array([], np.int64), str(tmp_path / "s.csv"), header_lines=self.HEADER)
        observables._write_rows(str(tmp_path / "h.csv"), (), ("bin_left", "bin_right", "mass"), (empty, empty, empty))
        observables.write_cdf_csv(empty, str(tmp_path / "c.csv"))
        _csv_writer_reference(tmp_path / "s_ref.csv", self.HEADER, ["u", "k"], [])
        _csv_writer_reference(tmp_path / "h_ref.csv", (), ["bin_left", "bin_right", "mass"], [])
        _csv_writer_reference(tmp_path / "c_ref.csv", (), ["x", "cdf"], [])
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()
        assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "h_ref.csv").read_bytes()
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "c_ref.csv").read_bytes()

    def test_histogram_across_row_pieces(self, tmp_path):
        # three columns, the edge floats in every column around row 8,192
        rng = np.random.default_rng(4)
        n = 8192 + 11
        edges = np.sort(rng.standard_normal(n + 1))
        masses = rng.random(n)
        edges[8192 - 6:8192 + 7] = EDGE_FLOATS
        masses[8192 - 7:8192 + 6] = EDGE_FLOATS[::-1]
        observables._write_rows(str(tmp_path / "got.csv"), self.HEADER, ("bin_left", "bin_right", "mass"),
                                (edges[:-1], edges[1:], masses))
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
        observables._write_rows(str(tmp_path / "got.csv"), self.HEADER, ("x", "cdf"), (xs, ys))
        rows = [[repr(float(x)), repr(float(y))] for x, y in zip(xs, ys)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["x", "cdf"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_small_tags_write_as_int64(self, tmp_path, samples):
        # the estimators return uint8 degrees; the text must be that of the
        # same degrees in int64
        k = np.arange(samples.size) % 21
        for dtype in (np.uint8, np.int64):
            observables.write_samples_csv(samples, k.astype(dtype), str(tmp_path / f"{np.dtype(dtype).name}.csv"),
                                          self.HEADER)
        assert (tmp_path / "uint8.csv").read_bytes() == (tmp_path / "int64.csv").read_bytes()

    def test_int64_tags(self, tmp_path):
        info = np.iinfo(np.int64)
        tags = np.array([0, -1, info.max, info.min, 7, 2**53 + 1], np.int64)
        samples = np.asarray(EDGE_FLOATS[:tags.size])
        observables.write_samples_csv(samples, tags, str(tmp_path / "got.csv"), header_lines=self.HEADER)
        rows = [[repr(float(u)), int(k)] for u, k in zip(samples, tags)]
        _csv_writer_reference(tmp_path / "ref.csv", self.HEADER, ["u", "k"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
