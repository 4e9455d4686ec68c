import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordperim as wp
from wordperim import models
from wordperim import moments as mo
from wordperim import simulation as sim

U6 = wp.Model.uniform(6)


def small_config(**kw):
    base = dict(model=U6, m=50, trajectories=400, seed=17)
    base.update(kw)
    return wp.SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(m=0)
    with pytest.raises(ValueError):
        small_config(trajectories=0)
    for field, value in [("m", True), ("trajectories", True), ("m", 5.0)]:
        with pytest.raises(ValueError):
            small_config(**{field: value})
    for seed in (True, False, -1, np.int64(-1), 2**64, "3"):  # the Philox key is [0, 2**64)
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=seed)


NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 20), n=st.integers(1, 20), seed=st.integers(0, 2**64 - 1),
       m_type=st.sampled_from(NUMPY_INTS), n_type=st.sampled_from(NUMPY_INTS))
def test_numpy_integer_config_writes_the_plain_int_sidecar(tmp_path_factory, m, n, seed,
                                                          m_type, n_type):
    out = tmp_path_factory.mktemp("sidecar")
    plain = wp.SimulationConfig(model=U6, m=m, trajectories=n, seed=seed)
    from_numpy = wp.SimulationConfig(model=U6, m=m_type(m), trajectories=n_type(n),
                                     seed=np.uint64(seed))
    assert from_numpy == plain
    assert all(type(v) is int for v in (from_numpy.m, from_numpy.trajectories, from_numpy.seed))
    sim.write_config_sidecar(wp.simulate(plain), out / "plain.json")
    sim.write_config_sidecar(wp.simulate(from_numpy), out / "numpy.json")
    assert (out / "numpy.json").read_bytes() == (out / "plain.json").read_bytes()


def test_memory_budget_refusal():
    # checked before anything is allocated: 3 GiB of paths and 2 GiB of endpoints and z are
    # never requested
    cfg = small_config(m=2, trajectories=2**27, record_full_paths=True)
    with pytest.raises(wp.MemoryBudgetExceeded, match="recording 134217728 paths of length 3 "
                       "needs 5368709120 bytes, budget is 2147483648"):
        wp.simulate(cfg)
    assert issubclass(wp.MemoryBudgetExceeded, ValueError)  # a refusal, as numpy's is


@pytest.mark.parametrize("paths", [False, True])
def test_memory_budget_counts_every_array_simulate_allocates(monkeypatch, paths):
    # N = 10, m = 3: the endpoints and z take 160 bytes, the paths 320 more, and the
    # sampler's one block of 10 rows 1280; a budget one byte short of either sum refuses
    cfg = small_config(m=3, trajectories=10, record_full_paths=paths)
    results = 160 + 320 * paths
    what = "10 paths of length 4" if paths else "the endpoints and z of 10 trajectories"
    want = wp.simulate(cfg)
    for budget, refusal in [(results - 1, f"recording {what} needs {results} bytes"),
                            (results + 1279, f"recording {what} and sampling 10 at a time "
                                             f"needs {results + 1280} bytes")]:
        monkeypatch.setattr(sim, "MEMORY_BUDGET", budget)
        with pytest.raises(wp.MemoryBudgetExceeded) as refused:
            wp.simulate(cfg)
        assert str(refused.value) == f"{refusal}, budget is {budget}"
    monkeypatch.setattr(sim, "MEMORY_BUDGET", results + 1280)
    got = wp.simulate(cfg)
    assert np.array_equal(got.endpoints, want.endpoints) and np.array_equal(got.z, want.z)


def test_endpoint_memory_budget_refusal():
    # N = 10**14 endpoints and z would take 1.6e15 bytes
    with pytest.raises(wp.MemoryBudgetExceeded,
                       match="1600000000000000 bytes, budget is 2147483648"):
        wp.simulate(small_config(m=1, trajectories=10**14))


def test_sampler_buffers_count_against_the_memory_budget(monkeypatch):
    # 64 rows of 2e9 + 1 letters at 32 bytes a letter; nothing is sampled
    monkeypatch.setattr(sim, "_gap_blocks", lambda *args: pytest.fail("sampled"))
    with pytest.raises(wp.MemoryBudgetExceeded) as refusal:
        wp.simulate(small_config(m=2 * 10**9, trajectories=64))
    assert str(refusal.value) == (
        "recording the endpoints and z of 64 trajectories and sampling 64 at a time needs "
        "4096000003072 bytes, budget is 2147483648")
    # the largest m one 64-row block may take: the results plus 64 * (m + 1) * 32 bytes
    m = (sim.MEMORY_BUDGET - 64 * 16) // (64 * 32) - 1
    monkeypatch.setattr(sim, "_gap_blocks", lambda *args: iter(()))
    wp.simulate(small_config(m=m, trajectories=64))
    with pytest.raises(wp.MemoryBudgetExceeded, match="sampling 64 at a time"):
        wp.simulate(small_config(m=m + 1, trajectories=64))


@pytest.mark.parametrize("k, m", [(2**63, 1), (2**64 + 5, 3), (2**62 + 1, 2), (2**33, 2**33)])
def test_uniform_k_and_m_must_keep_letters_and_sums_in_int64(k, m):
    with pytest.raises(ValueError) as refusal:
        small_config(model=wp.Model.uniform(k), m=m)
    assert str(refusal.value) == (
        f"uniform k={k} with m={m} would overflow int64: "
        "need k <= 2**63 - 1 and m*(k - 1) <= 2**63 - 1")


@pytest.mark.parametrize("k, m", [(2**63 - 1, 1), (2**62 + 1, 1), (2**33 + 1, 2**30 - 1)])
def test_the_int64_bounds_themselves_are_accepted(k, m):
    assert m * (k - 1) <= 2**63 - 1
    small_config(model=wp.Model.uniform(k), m=m)
    ens = wp.simulate(wp.SimulationConfig(model=wp.Model.uniform(k), m=1, trajectories=50, seed=9))
    assert (ens.endpoints >= 0).all() and (ens.endpoints <= k - 1).all()


# (p, L, m): L is the largest letter the geometric sampler can return at p, from
# the uniform 1 - 2**-53.  L - 1 = 7 * 73 * 127 divides 2**63 - 1, so m*(L - 1)
# is 2**63 - 1 exactly; L - 1 = 2**16, so (m + 1)*(L - 1) is 2**63 exactly.
GEOMETRIC_INT64_EDGES = [(Fraction(20, 35341), 64898, (2**63 - 1) // 64897),
                         (Fraction(20, 35689), 65537, 2**47 - 1)]


@pytest.mark.parametrize("p, top, m", GEOMETRIC_INT64_EDGES)
def test_geometric_p_and_m_must_keep_sums_in_int64(p, top, m):
    model = wp.Model.geometric(p)
    assert models.geometric_letters(model, np.array([1 - 2.0**-53])).tolist() == [top]
    assert m * (top - 1) <= 2**63 - 1 < (m + 1) * (top - 1)
    assert 2**63 - 1 in (m * (top - 1), (m + 1) * (top - 1) - 1)
    assert small_config(model=model, m=m).m == m
    with pytest.raises(ValueError) as refusal:
        small_config(model=model, m=m + 1)
    assert str(refusal.value) == (
        f"geometric p={p} with m={m + 1} would overflow int64: "
        f"need m*(L - 1) <= 2**63 - 1 for the largest letter L = {top}")


def test_degenerate_model():
    ens = wp.simulate(wp.SimulationConfig(model=wp.Model.uniform(1), m=10, trajectories=5, seed=0))
    assert ens.degenerate_scale
    assert np.all(ens.endpoints == 0)
    assert np.all(ens.z == 0.0)
    assert wp.empirical_moments(ens) == (0.0, 0.0, 0.0)


def test_single_gap_endpoint_is_the_gap():
    cfg = wp.SimulationConfig(model=U6, m=1, trajectories=1, seed=99)
    ens = wp.simulate(cfg)
    letters = wp.sample_letters(U6, wp.trajectory_rng(99, 0), 2)
    assert ens.endpoints[0] == abs(int(letters[1]) - int(letters[0]))


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 60), n=st.integers(1, 150), seed=st.integers(0, 2**64 - 1))
def test_single_letter_model_is_degenerate(m, n, seed):
    # k = 1: every gap is 0 and sigma = 0, so z is forced to 0.0
    ens = wp.simulate(wp.SimulationConfig(model=wp.Model.uniform(1), m=m, trajectories=n,
                                          seed=seed, record_full_paths=True))
    assert ens.degenerate_scale and ens.sigma == 0.0
    assert not ens.paths.any() and not ens.endpoints.any()
    assert ens.z.tolist() == [0.0] * n


@settings(max_examples=25, deadline=None)
@given(model=st.one_of(st.builds(wp.Model.uniform, st.integers(2, 40)),
                       st.builds(wp.Model.geometric,
                                 st.fractions(Fraction(1, 1000), Fraction(999, 1000)))),
       n=st.integers(1, 150), seed=st.integers(0, 2**64 - 1))
def test_one_gap_endpoint_is_the_letter_gap(model, n, seed):
    # m = 1: each endpoint is |x1 - x0| of its trajectory's own two letters
    ens = wp.simulate(wp.SimulationConfig(model=model, m=1, trajectories=n, seed=seed))
    want = [abs(int(b) - int(a))
            for a, b in (wp.sample_letters(model, wp.trajectory_rng(seed, l), 2) for l in range(n))]
    assert ens.endpoints.tolist() == want
    assert np.array_equal(ens.z, (ens.endpoints - float(ens.mean_gap)) / ens.sigma)


@pytest.mark.parametrize("model", [wp.Model.uniform(2), U6, wp.Model.geometric(Fraction(1, 3)),
                                   wp.Model.geometric(Fraction(1, 2))],
                         ids=lambda model: model.describe())
def test_simulate_normalizes_by_the_oracle_moments(model):
    # M and V* from the exact-sum oracle, a route independent of mean_gap and vstar_sigma
    m, M = 50, wp.cross_moment_oracle(model, wp.MomentIndex(0, 1, 0, 0))
    vstar = mo.variance_assembly(model, source=wp.cross_moment_oracle).coefficients[1]
    ens = wp.simulate(wp.SimulationConfig(model=model, m=m, trajectories=200, seed=5))
    assert (ens.mean_gap, ens.vstar, ens.sigma) == (M, vstar, math.sqrt(vstar))
    assert np.array_equal(ens.z, (ens.endpoints - float(m * M)) / (math.sqrt(vstar) * math.sqrt(m)))


def test_determinism_same_config():
    a = wp.simulate(small_config())
    b = wp.simulate(small_config())
    assert np.array_equal(a.endpoints, b.endpoints)
    assert np.array_equal(a.z, b.z)


def test_recording_paths_does_not_change_endpoints():
    a = wp.simulate(small_config())
    b = wp.simulate(small_config(record_full_paths=True))
    assert np.array_equal(a.endpoints, b.endpoints)
    assert np.array_equal(a.z, b.z)


def test_endpoint_support_bounds(k6_endpoints):
    ep = k6_endpoints.endpoints
    m = k6_endpoints.config.m
    assert ep.min() >= 0
    assert ep.max() <= m * (6 - 1)


def test_mean_drift(k6_endpoints):
    # ensemble mean of Q(m)/m within 5 sigma / sqrt(N m) of the exact M
    ens = k6_endpoints
    n, m = ens.config.trajectories, ens.config.m
    observed = ens.endpoints.mean() / m
    assert abs(observed - float(ens.mean_gap)) <= 5 * ens.sigma / math.sqrt(n * m)


def test_paths_partial_sums_consistent():
    ens = wp.simulate(small_config(record_full_paths=True))
    assert np.all(ens.paths[:, 0] == 0)
    assert np.all(np.diff(ens.paths, axis=1) >= 0)
    assert np.array_equal(ens.paths[:, -1], ens.endpoints)


def test_normalized_path_endpoints(k6_paths):
    w = wp.normalized_path(k6_paths, 3, [0.0, 1.0])
    assert w[0] == 0.0
    assert abs(w[1] - k6_paths.z[3]) < 1e-12


@pytest.mark.parametrize("m, below", [(100, 3), (500, 0), (2000, 12)])
def test_normalized_path_reads_q_j_at_each_grid_point(m, below):
    # the float m*t falls just below j at some t = j/m; W(j/m) must still read Q(j)
    assert np.count_nonzero(np.floor(m * (np.arange(m + 1) / m)) != np.arange(m + 1)) == below
    ens = wp.simulate(small_config(m=m, trajectories=2, record_full_paths=True))
    q = ens.paths[1]
    for t in (np.arange(m + 1) / m, np.linspace(0, 1, m + 1)):
        want = (q - float(ens.mean_gap) * m * t) / (ens.sigma * math.sqrt(m))
        assert np.array_equal(wp.normalized_path(ens, 1, t), want)


def test_normalized_path_validation():
    ens = wp.simulate(small_config())
    with pytest.raises(ValueError, match="paths"):
        wp.normalized_path(ens, 0, [0.5])
    with_paths = wp.simulate(small_config(record_full_paths=True))
    with pytest.raises(IndexError):
        wp.normalized_path(with_paths, 10**6, [0.5])
    for grid in ([1.5], [math.nan], [0, math.nan, 1]):  # a NaN lies in no interval
        with pytest.raises(ValueError, match=r"grid values must lie in \[0, 1\]"):
            wp.normalized_path(with_paths, 0, grid)
    for index in (True, 1.5):
        with pytest.raises(ValueError, match=f"trajectory index must be an integer, got {index}"):
            wp.normalized_path(with_paths, index, [0.5])
    assert (wp.normalized_path(with_paths, np.int64(1), [0.5, 1])
            == wp.normalized_path(with_paths, 1, [0.5, 1])).all()


def test_brownian_marginal_variance(k6_paths):
    # Var W(t) ~= t; tolerance five standard errors of a variance estimate
    m = k6_paths.config.m
    n = k6_paths.config.trajectories
    t = 0.5
    w = (k6_paths.paths[:, int(m * t)] - float(k6_paths.mean_gap) * m * t) / (
        k6_paths.sigma * math.sqrt(m)
    )
    se = t * math.sqrt(2.0 / n)
    assert abs(w.var() - t) <= 5 * se


def test_empirical_moments_third_statistic_sign(k6_endpoints):
    stats = wp.empirical_moments(k6_endpoints)
    assert stats.sum_z3_raw > 0  # mu3* > 0 for k >= 3


def test_empirical_moments_hold_one_array_of_n_floats(k6_endpoints, peak_memory):
    # one scratch array serves z**2 and then the cubed deviations from m*M
    n = k6_endpoints.config.trajectories
    with peak_memory() as traced:
        stats = wp.empirical_moments(k6_endpoints)
    assert traced.peak <= 8 * n + 128 * 2**10
    dev = k6_endpoints.endpoints - float(k6_endpoints.config.m * k6_endpoints.mean_gap)
    z = k6_endpoints.z
    assert stats == (float(np.mean(z)), float(np.mean(z * z)), float(np.mean(dev**3)))


def test_endpoint_csv_round_trip(tmp_path):
    ens = wp.simulate(small_config())
    path = tmp_path / "ens.csv"
    sim.write_endpoint_csv(ens, path)
    assert np.array_equal(sim.read_endpoint_csv(path), ens.z)  # repr round-trips floats exactly
    data = sim._read_csv(path, "endpoint", sim._ENDPOINT_ROW)
    assert np.array_equal(data["endpoint"], ens.endpoints)
    assert np.array_equal(data["trajectory"], np.arange(ens.config.trajectories))


def test_path_csv_round_trip(tmp_path):
    ens = wp.simulate(small_config(trajectories=20, record_full_paths=True))
    path = tmp_path / "paths.csv"
    sim.write_path_csv(ens, path)
    assert np.array_equal(sim.read_path_csv(path), ens.paths)


def test_csv_schema_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        sim.read_endpoint_csv(bad)
    with pytest.raises(ValueError):
        sim.read_path_csv(bad)


def test_csv_bytes_deterministic(tmp_path):
    ens = wp.simulate(small_config())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sim.write_endpoint_csv(ens, p1)
    sim.write_endpoint_csv(wp.simulate(small_config()), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_config_sidecar(tmp_path):
    ens = wp.simulate(small_config())
    path = tmp_path / "ens.json"
    sim.write_config_sidecar(ens, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["config"]["seed"] == 17
    assert doc["config"]["model"] == {"kind": "uniform", "k": 6}
    assert Fraction(doc["mean_gap"]) == ens.mean_gap
    assert doc["sigma"] == ens.sigma


def test_write_path_csv_requires_paths(tmp_path):
    ens = wp.simulate(small_config())
    with pytest.raises(ValueError):
        sim.write_path_csv(ens, tmp_path / "x.csv")


def reference_endpoint_csv(ensemble) -> bytes:
    """The endpoint CSV as the per-row writer loop produced it."""
    lines = ["trajectory,endpoint,z\n"]
    for l, (e, zv) in enumerate(zip(ensemble.endpoints, ensemble.z)):
        lines.append(f"{l},{int(e)},{float(zv)!r}\n")
    return "".join(lines).encode("utf-8")


def reference_path_csv(ensemble) -> bytes:
    """The path CSV as the per-row writer loop produced it."""
    lines = ["trajectory,j,Q\n"]
    for l in range(ensemble.config.trajectories):
        row = ensemble.paths[l]
        for j in range(row.size):
            lines.append(f"{l},{j},{int(row[j])}\n")
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize(
    "model", [U6, wp.Model.uniform(1), wp.Model.geometric(Fraction(1, 2))],
    ids=lambda model: model.describe(),
)
@pytest.mark.parametrize("n, m", [
    *[(n, m) for n in (1, 63, 64, 65, 150) for m in (1, 50)],
    (sim._CSV_CHUNK_ROWS + 5, 1),  # more endpoint rows than one chunk
    (400, 50),                     # 20 400 path rows: a chunk ends inside a path
])
def test_csv_writers_equal_row_loops(tmp_path, model, n, m):
    ens = wp.simulate(wp.SimulationConfig(model=model, m=m, trajectories=n, seed=23,
                                          record_full_paths=True))
    e_csv, p_csv = tmp_path / "e.csv", tmp_path / "p.csv"
    sim.write_endpoint_csv(ens, e_csv)
    sim.write_path_csv(ens, p_csv)
    assert e_csv.read_bytes() == reference_endpoint_csv(ens)
    assert p_csv.read_bytes() == reference_path_csv(ens)

    assert np.array_equal(sim.read_endpoint_csv(e_csv), ens.z)
    data = sim._read_csv(e_csv, "endpoint", sim._ENDPOINT_ROW)
    assert np.array_equal(data["trajectory"], np.arange(n))
    assert np.array_equal(data["endpoint"], ens.endpoints)
    assert np.array_equal(sim.read_path_csv(p_csv), ens.paths)


def chunk_crossing_ensemble():
    """N = 2**14 + 5 endpoints at m = 7: the z values of the last rows repeat those of chunk 1."""
    ens = wp.simulate(wp.SimulationConfig(model=U6, m=7, trajectories=sim._CSV_CHUNK_ROWS + 5,
                                          seed=23))
    assert set(ens.z[sim._CSV_CHUNK_ROWS:]) <= set(ens.z[:sim._CSV_CHUNK_ROWS])
    return ens


def special_z_ensemble():
    """Signed zeros, NaNs of both signs and infinities in one chunk, each repeated."""
    z = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1, 5e-324, -1.5])
    z = np.concatenate([z, z[::-1]])
    ens = wp.simulate(small_config(trajectories=z.size))
    return dataclasses.replace(ens, endpoints=np.arange(z.size) * 3, z=z)


@pytest.mark.parametrize("make", [chunk_crossing_ensemble, special_z_ensemble])
def test_csv_writers_equal_row_loops_on_repeated_z(tmp_path, make):
    ens = make()
    e_csv = tmp_path / "e.csv"
    sim.write_endpoint_csv(ens, e_csv)
    assert e_csv.read_bytes() == reference_endpoint_csv(ens)
    if np.isnan(ens.z).any():  # refused by read_endpoint_csv, and read back by its parser
        with pytest.raises(ValueError, match="line 4: z is NaN"):
            sim.read_endpoint_csv(e_csv)
    data = sim._read_csv(e_csv, "endpoint", sim._ENDPOINT_ROW)
    assert np.array_equal(data["endpoint"], ens.endpoints)
    assert np.array_equal(data["z"], ens.z, equal_nan=True)
    zero = ens.z == 0
    assert np.array_equal(np.signbit(data["z"][zero]), np.signbit(ens.z[zero]))


def hand_built_endpoint_ensemble(endpoints, z):
    """An ensemble with the given endpoints and z, which ``simulate`` cannot draw."""
    ens = wp.simulate(small_config(trajectories=1))
    config = dataclasses.replace(ens.config, trajectories=len(z))
    return dataclasses.replace(ens, config=config,
                               endpoints=np.asarray(endpoints, dtype=np.int64),
                               z=np.asarray(z, dtype=np.float64))


def test_endpoint_csv_writer_on_texts_that_widen_from_chunk_to_chunk(tmp_path, monkeypatch):
    # chunks of 8 rows: short z and endpoints, then the longest float reprs and
    # the int64 extremes, then (5 rows) short again
    monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", 8)
    z = np.array([0.0, -0.5, 2.25, 1.0, -0.0, 3.5, -1.75, 0.5] * 2 + [0.25] * 5)
    z[8:16] = [-2.2250738585072014e-308, -4.9406564584124654e-324, -1.2345678901234567e-300,
               -0.00012345678901234567, 5e-324, -1.7976931348623157e308, np.inf, np.nan]
    endpoints = np.arange(z.size) % 10
    endpoints[8:10] = [INT64.min, INT64.max]
    ens = hand_built_endpoint_ensemble(endpoints, z)
    e_csv = tmp_path / "e.csv"
    sim.write_endpoint_csv(ens, e_csv)
    assert e_csv.read_bytes() == reference_endpoint_csv(ens)
    assert max(len(repr(v)) for v in z.tolist()) == 24  # as wide as a float64 repr gets


def test_endpoint_csv_writer_memory_is_flat(tmp_path, peak_memory):
    e = np.random.default_rng(11).binomial(2000, 0.5, size=10**6)
    ens = hand_built_endpoint_ensemble(e, (e - 1000.0) / math.sqrt(500.0))
    with peak_memory() as traced:
        sim.write_endpoint_csv(ens, tmp_path / "e.csv")
    # a chunk's rows, its index arrays and a 64 KiB slice of text at a time; writing the text
    # of a chunk whole, in two copies, took 1.9 MB
    assert traced.peak < 1.75 * 2**20


@pytest.mark.parametrize("m", [
    sim._CSV_CHUNK_ROWS - 1,      # a path fills one segment exactly
    sim._CSV_CHUNK_ROWS,          # a second segment of one row
    sim._CSV_CHUNK_ROWS + 3,
    2 * sim._CSV_CHUNK_ROWS + 5,  # three segments
])
def test_path_csv_writer_splits_long_paths(tmp_path, m):
    ens = wp.simulate(wp.SimulationConfig(model=U6, m=m, trajectories=2, seed=23,
                                          record_full_paths=True))
    p_csv = tmp_path / "p.csv"
    sim.write_path_csv(ens, p_csv)
    assert p_csv.read_bytes() == reference_path_csv(ens)
    assert np.array_equal(sim.read_path_csv(p_csv), ens.paths)


INT64 = np.iinfo(np.int64)
DECIMAL_EDGES = [0, 1, -1, INT64.min, INT64.max] + [
    sign * (10**i + d) for i in range(1, 19) for d in (-1, 0) for sign in (1, -1)
]


def assert_renders_percent_d(values, extra):
    """``_decimal_into`` writes each value as ``"%d" % v``, right-aligned, NUL on its left."""
    values = np.asarray(values, dtype=np.int64)
    width = max(len(b"%d" % v) for v in values.tolist()) + extra
    out = np.full((values.size, width), ord("x"), dtype=np.uint8)
    sim._decimal_into(values, out)
    for v, row in zip(values.tolist(), out):
        text = b"%d" % v
        assert row.tobytes() == b"\0" * (width - len(text)) + text


@pytest.mark.parametrize("extra", [0, 1, 4])
def test_decimal_into_edge_values(extra):
    assert_renders_percent_d(DECIMAL_EDGES, extra)
    for v in DECIMAL_EDGES:  # alone, the value sets the number of digit groups
        assert_renders_percent_d([v], extra)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(INT64.min, INT64.max), min_size=1, max_size=40),
       extra=st.integers(0, 3))
def test_decimal_into_renders_percent_d(values, extra):
    assert_renders_percent_d(values, extra)


def test_decimal_into_broadcasts_and_refuses_a_narrow_field():
    out = np.zeros((2, 3, 4), dtype=np.uint8)
    sim._decimal_into(np.array([[7], [-123]]), out)
    assert out.reshape(6, 4).tobytes() == (b"\0\0\0" + b"7") * 3 + b"-123" * 3
    with pytest.raises(ValueError, match="do not fit"):
        sim._decimal_into(np.array([-100]), np.zeros((1, 3), dtype=np.uint8))


def hand_built_path_ensemble(paths):
    """An ensemble whose recorded paths are ``paths``, which ``simulate`` cannot draw."""
    paths = np.asarray(paths, dtype=np.int64)
    ens = wp.simulate(small_config(trajectories=paths.shape[0]))
    config = dataclasses.replace(ens.config, m=paths.shape[1] - 1, record_full_paths=True)
    return dataclasses.replace(ens, config=config, paths=paths)


@pytest.mark.parametrize("paths", [
    pytest.param([[0, -1, 5, -10**12], [INT64.min, INT64.max, -999, 1000]],
                 id="negatives-extremes"),
    pytest.param([[0, 7]], id="N1-m1"),
    pytest.param([np.arange(2 * sim._CSV_CHUNK_ROWS + 5) * 37 - 10**6], id="one-long-path"),
    # chunks of 3276 paths whose longest Q texts are 14, 13 and 13 characters
    pytest.param(np.arange(-20000, 20000).reshape(8000, 5) ** 3, id="widths-change-across-chunks"),
])
def test_path_csv_writer_on_hand_built_paths(tmp_path, paths):
    ens = hand_built_path_ensemble(paths)
    p_csv = tmp_path / "p.csv"
    sim.write_path_csv(ens, p_csv)
    assert p_csv.read_bytes() == reference_path_csv(ens)
    assert np.array_equal(sim.read_path_csv(p_csv), ens.paths)


@pytest.mark.parametrize("n, m", [(1000, 500), (4000, 500), (2, 3 * sim._CSV_CHUNK_ROWS + 5)])
def test_path_csv_writer_memory_is_flat(tmp_path, peak_memory, n, m):
    ens = wp.simulate(wp.SimulationConfig(model=wp.Model.geometric(Fraction(1, 2)), m=m,
                                          trajectories=n, seed=5, record_full_paths=True))
    with peak_memory() as traced:
        sim.write_path_csv(ens, tmp_path / "p.csv")
    assert traced.peak < 4 * 2**20


@pytest.mark.parametrize("body, problem", [
    ("", "no data rows"),
    ("0,0,0\n", "j = 0"),                                # one cell: m = 0
    ("0,0,0\n0,1\n", "2 were found"),                    # short row
    ("0,0,0\n0,1,1,1\n", "4 were found"),                # long row
    ("0,0,0\n0,-1,5\n0,1,3\n", "line 3: trajectory 0, j -1"),  # negative j
    ("0,0,0\n0,1,1\n0,2,3\n1,0,0\n1,2,4\n", "line 6: trajectory 1, j 2"),  # missing row
    ("0,0,0\n0,2,3\n0,1,1\n", "line 3: trajectory 0, j 2"),                # out of order
    ("0,0,0\n\n0,2,3\n0,1,1\n", "line 4: trajectory 0, j 2"),  # the empty line counts
    ("0,0,0\n0,1,1\n2,0,0\n2,1,1\n", "line 4: trajectory 2, j 0"),        # missing path
    ("0,0,0\n0,1,1\n10000000000000,0,0\n10000000000000,1,1\n", "line 4"),  # stray index
    ("0,0,0\n0,1,x\n", "could not convert"),
    ("0,0,0\n0,1\n0,2,2\n", "line 3: .*2 were found"),   # short row, file line 3
    ("0,0,0\n0,x,1\n0,2,2\n", "line 3: could not convert string 'x'"),  # non-numeric cell
    ("0,0,0\n\n0,1,x\n", "line 4: could not convert"),  # blank lines count as file lines
    ("0,0,0\r\n0,1,x\r\n", "line 3: could not convert string 'x'"),  # CRLF line ends
    ("0,0,0\n0,1,1\n1,0", "line 4: .*2 were found"),  # no final newline
    ("0,0,0\n   \n0,1,1\n", "line 3: .*1 were found"),  # a line of blanks is a row
])
def test_read_path_csv_rejects_malformed(tmp_path, body, problem):
    bad = tmp_path / "bad.csv"
    bad.write_text("trajectory,j,Q\n" + body)
    with pytest.raises(ValueError, match=problem):
        sim.read_path_csv(bad)


@pytest.mark.parametrize("name", ["p.csv", "p.gz"])  # numpy opens p.gz from the handle
def test_read_path_csv_one_path_equals_the_whole_read(tmp_path, name):
    ens = wp.simulate(small_config(trajectories=5, record_full_paths=True))
    path = tmp_path / name
    sim.write_path_csv(ens, path)
    m = ens.config.m
    for l in range(5):
        one = sim.read_path_csv(path, trajectory=l, m=m)
        assert one.shape == (1, m + 1)
        assert np.array_equal(one[0], ens.paths[l])


@pytest.mark.parametrize("l, m, problem", [
    (0, 49, "lines 2 to 51 are not trajectory 0, j = 0..49"),  # the path goes on
    (4, 49, "are not trajectory 4"),
    (0, 51, "lines 2 to 53 are not trajectory 0"),  # runs into path 1
    (4, 51, "are not trajectory 4"),                # runs out of rows
    (5, 50, "lines 257 to 307 are not trajectory 5"),  # past the last row: no rows at all
    (-1, 50, "need trajectory >= 0 and m >= 1"),
    (0, 0, "need trajectory >= 0 and m >= 1"),
])
def test_read_path_csv_one_path_rejects_a_wrong_grid(tmp_path, l, m, problem):
    ens = wp.simulate(small_config(trajectories=5, record_full_paths=True))
    path = tmp_path / "p.csv"
    sim.write_path_csv(ens, path)
    assert ens.config.m == 50
    with pytest.raises(ValueError, match=problem):
        sim.read_path_csv(path, trajectory=l, m=m)


def test_read_path_csv_one_path_checks_its_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("trajectory,j,Q\n0,0,0\n0,1,1\n1,0,0\n1,2,4\n")  # path 1 lacks j = 1
    assert sim.read_path_csv(path, trajectory=0, m=1).tolist() == [[0, 1]]
    with pytest.raises(ValueError, match="lines 4 to 5 are not trajectory 1, j = 0..1"):
        sim.read_path_csv(path, trajectory=1, m=1)


@pytest.mark.parametrize("head, sep, end", [
    ("\r\n", "\r\n", "\r\n"),  # CRLF line ends
    ("\n\n", "\n\n\n", "\n"),    # empty lines after the header and between rows
    ("\n", "\n", ""),            # no final newline
], ids=["crlf", "empty-lines", "no-final-newline"])
def test_read_csv_line_end_variants(tmp_path, head, sep, end):
    def csv(name, header, rows):
        path = tmp_path / name
        path.write_bytes((header + head + sep.join(rows) + end).encode())
        return path

    paths = csv("p.csv", "trajectory,j,Q", ["0,0,0", "0,1,1", "1,0,0", "1,1,4"])
    assert sim.read_path_csv(paths).tolist() == [[0, 1], [0, 4]]
    ends = csv("e.csv", "trajectory,endpoint,z", ["0,1,-0.5", "1,4,2.25"])
    assert sim.read_endpoint_csv(ends).tolist() == [-0.5, 2.25]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_csv_with_compressed_suffix_reads(tmp_path, suffix):
    # numpy would open these names as compressed files; the reader must not
    ens = wp.simulate(small_config(trajectories=20, record_full_paths=True))
    plain, odd = tmp_path / "e.csv", tmp_path / f"e{suffix}"
    for path in (plain, odd):
        sim.write_endpoint_csv(ens, path)
    assert np.array_equal(sim.read_endpoint_csv(odd), sim.read_endpoint_csv(plain))
    plain, odd = tmp_path / "p.csv", tmp_path / f"p{suffix}"
    for path in (plain, odd):
        sim.write_path_csv(ens, path)
    assert np.array_equal(sim.read_path_csv(odd), sim.read_path_csv(plain))


C = sim._CSV_CHUNK_ROWS


def endpoint_lines(n: int) -> list[str]:
    """The data lines, with their LF ends, of an endpoint CSV of n hand-built rows."""
    rng = np.random.default_rng(n)
    ens = hand_built_endpoint_ensemble(rng.integers(-10**6, 10**6, n), rng.standard_normal(n))
    return reference_endpoint_csv(ens).decode().splitlines(True)[1:]


def one_shot(lines: list[str]) -> np.ndarray:
    """The rows of ``lines`` by one ``np.loadtxt`` over them all."""
    return np.loadtxt(lines, dtype=sim._ENDPOINT_ROW, delimiter=",", comments=None, ndmin=1)


# empty lines before the last row of chunk 1 and around the first row of chunk 2
BLANKS = {C - 1: 1, C: 2, C + 1: 1}


def endpoint_file(path, lines: list[str], end: str, blanks: dict):
    """Write an endpoint CSV of ``lines`` to ``path``, ``blanks[r]`` empty lines before row r,
    each line ended by ``end``."""
    spaced = [x for r, line in enumerate(lines) for x in ["\n"] * blanks.get(r, 0) + [line]]
    path.write_bytes("".join(["trajectory,endpoint,z\n", *spaced]).replace("\n", end).encode())
    return path


@pytest.mark.parametrize("n", [C - 1, C, C + 1, 3 * C + 1])
@pytest.mark.parametrize("name, end, blanks", [
    ("e.csv", "\n", {}),
    ("e.csv", "\r\n", BLANKS),  # CRLF line ends, empty lines across the chunk boundary
    ("e.gz", "\n", BLANKS),      # a plain CSV that numpy would open as gzip by its name
], ids=["lf", "crlf-blank-lines", "plain-gz"])
def test_endpoint_reader_across_chunks_equals_one_parse(tmp_path, n, name, end, blanks):
    lines = endpoint_lines(n)
    want = one_shot(lines)
    path = endpoint_file(tmp_path / name, lines, end, blanks)
    assert np.array_equal(sim.read_endpoint_csv(path), want["z"])


@pytest.mark.parametrize("n", [C + 1, 3 * C + 1])
@pytest.mark.parametrize("bad, problem", [
    ("1,2,nan\n", "z is NaN"),
    ("1,2\n", "the dtype passed requires 3 columns but 2 were found"),
])
def test_endpoint_reader_refuses_a_row_of_a_later_chunk_by_its_line(tmp_path, n, bad, problem):
    # the last row, after the empty lines of BLANKS; the header is line 1
    lines = endpoint_lines(n)
    lines[-1] = bad
    path = endpoint_file(tmp_path / "e.csv", lines, "\r\n", BLANKS)
    line = len(path.read_bytes().splitlines())  # the file's last line
    with pytest.raises(ValueError, match=f"^endpoint CSV .*e.csv line {line}: {problem}$"):
        sim.read_endpoint_csv(path)


def test_endpoint_reader_refuses_a_malformed_row_before_an_earlier_nan(tmp_path):
    # a NaN z in chunk 1 and a short row in chunk 2: as one parse of the whole file
    # would, the short row (line C + 2, after the header) is refused
    lines = endpoint_lines(C + 1)
    lines[0], lines[-1] = "0,2,nan\n", "1,2\n"
    path = endpoint_file(tmp_path / "e.csv", lines, "\n", {})
    problem = "the dtype passed requires 3 columns but 2 were found"
    with pytest.raises(ValueError, match=f"^endpoint CSV .*e.csv line {C + 2}: {problem}$"):
        sim.read_endpoint_csv(path)


@pytest.mark.parametrize(
    "body", ["", "0,1\n", "0,1,0.5,7\n", "0,1,0.5\n1,x,0.5\n", "0,1,0.5\n1,2\n",
             "0,1,nan\n", "0,1,inf\n\n1,2,-nan\n"]  # a NaN z, empty lines counted
)
def test_read_endpoint_csv_rejects_malformed(tmp_path, body):
    bad = tmp_path / "bad.csv"
    bad.write_text("trajectory,endpoint,z\n" + body)
    # the last line of each body is the bad one; the header is line 1
    problem = f"endpoint CSV .* line {body.count(chr(10)) + 1}: " if body else "endpoint CSV"
    with pytest.raises(ValueError, match=problem):
        sim.read_endpoint_csv(bad)


# sha256 of the endpoint CSV and the path CSV for m=50, N=150, seed=17.  These
# bytes were produced by a per-trajectory loop over trajectory_rng and
# sample_letters; any sampler must reproduce them exactly.
GOLDEN = {
    "uniform[1,6]": (
        "720003ae4e393c2ab3e8fbafbbcd114932faf1d7ade440312be65bc0c33421ce",
        "549dc126851a912bccc0383823f39928fc7bdddc681b7fa2a0684f58c5651534",
    ),
    "geometric(1/2)": (
        "b0a0b8c8aedd65779bd8e854476444b7b21b59a0157f4e56ae2b2c700c7f255f",
        "7493310dd97beb4c33fd462412f93be5f3ef9adb9539ab58ca38314398341e67",
    ),
    "uniform[1,2147483649]": (
        "3ae49f67e452d35e8c878c327fb5eb55e180e25173d9a92ca996feef4ce8740f",
        "ff3dbeeab982cee775de167a654686fa7c3001bc127998a178420c48ff5abf64",
    ),
    "uniform[1,8589934592]": (  # 64-bit draws
        "46c67364259f35e6461ef3a69bee6377447a5b11c571ded8df1a0469acbd185a",
        "b0c47ee7a09e5bdfaaf9388da38968e4aec41a90cdcac86d1ce7cbbf043ad4fd",
    ),
}


@pytest.mark.parametrize(
    "model", [U6, wp.Model.geometric(Fraction(1, 2)), wp.Model.uniform(2**31 + 1),
              wp.Model.uniform(2**33)],
    ids=lambda model: model.describe(),
)
def test_csv_bytes_golden(tmp_path, model):
    cfg = dict(model=model, m=50, trajectories=150, seed=17)
    sim.write_endpoint_csv(wp.simulate(wp.SimulationConfig(**cfg)), tmp_path / "e.csv")
    ens = wp.simulate(wp.SimulationConfig(**cfg, record_full_paths=True))
    sim.write_path_csv(ens, tmp_path / "p.csv")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("e.csv", "p.csv")
    )
    assert digests == GOLDEN[model.describe()]


@pytest.mark.parametrize("index", [np.int64(3), np.int32(3), np.uint64(3), np.int64(-1)])
def test_trajectory_rng_numpy_index(index):
    want = wp.sample_letters(U6, wp.trajectory_rng(9, int(index)), 20)
    assert np.array_equal(wp.sample_letters(U6, wp.trajectory_rng(9, index), 20), want)
    assert np.array_equal(wp.sample_letters(U6, wp.trajectory_rng(np.int64(9), index), 20), want)


# Uniform k up to 2**32 takes 32-bit draws, larger k 64-bit ones; the comments
# give the share of draws that numpy's rule rejects.
UNIFORM_KS = [1, 2, 3, 6, 7, 1000,
              2**31 + 1,         # about 1/2
              3 * 2**30,         # 1/4
              2**32 - 1, 2**32,  # 1/2**32 and none
              2**32 + 5, 2**33, 2**40 + 3, 2**62 + 1,
              (2**64 + 2) // 3,  # about 1/3 of 64-bit draws
              2**63 - 1]


@pytest.mark.parametrize("k", UNIFORM_KS)
def test_uniform_rule_equals_generator_integers(k):
    # the rule simulate reads raw Philox words by, against numpy's Generator
    for seed in (9, 2**64 - 1):
        for l in range(12):
            key = np.array([seed, l], dtype=np.uint64)
            for size in (1, 2, 3, 501):
                want = np.random.Generator(np.random.Philox(key=key)).integers(
                    1, k + 1, size=size, dtype=np.int64)
                letters = np.empty(size, dtype=np.int64)
                sim._uniform_row(np.random.Philox(key=key), k, size, letters)
                assert np.array_equal(letters + 1, want), (k, seed, l, size)


EQUIVALENCE_MODELS = [
    *(wp.Model.uniform(k) for k in UNIFORM_KS if 600 * (k - 1) < 2**63),
    wp.Model.geometric(Fraction(1, 1000)),
    wp.Model.geometric(Fraction(1, 2)),
    wp.Model.geometric(Fraction(999, 1000)),
]


@pytest.fixture
def generator_spy(monkeypatch):
    """The names of the Generator routes called while the fixture is active.

    Every route to a numpy Generator is wrapped: its constructors, and
    trajectory_rng and sample_letters under each name they are imported by.
    """
    calls = []

    def spy(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    for module in (np.random, np.random._generator):
        for name in ("Generator", "default_rng"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for module in (wp, sim, models):
        for name in ("trajectory_rng", "sample_letters"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("model", EQUIVALENCE_MODELS, ids=lambda model: model.describe())
@pytest.mark.parametrize("m", [1, 7, 50, 600])  # m = 600: a block buffer is above 128 KiB
def test_block_sampler_equals_scalar_path(generator_spy, model, m):
    n = 2 * sim._BLOCK_ROWS + 3
    seed = 2**64 - 1  # the largest Philox key
    want = np.array([
        np.cumsum(np.abs(np.diff(wp.sample_letters(model, wp.trajectory_rng(seed, l), m + 1))))
        for l in range(n)
    ])
    # the spy sees the reference's calls, and none of simulate's
    assert {"trajectory_rng", "sample_letters", "Generator"} <= set(generator_spy)
    generator_spy.clear()
    cfg = dict(model=model, m=m, trajectories=n, seed=seed)
    ends = wp.simulate(wp.SimulationConfig(**cfg))
    with_paths = wp.simulate(wp.SimulationConfig(**cfg, record_full_paths=True))
    assert generator_spy == []

    assert np.array_equal(with_paths.paths[:, 0], np.zeros(n))
    assert np.array_equal(with_paths.paths[:, 1:], want)
    for ens in (ends, with_paths):
        assert np.array_equal(ens.endpoints, want[:, -1])
        ref_z = np.zeros(n) if ens.degenerate_scale else (
            (want[:, -1] - float(m * ens.mean_gap)) / (ens.sigma * math.sqrt(m)))
        assert np.array_equal(ens.z, ref_z)


@pytest.mark.parametrize("k", [k for k in UNIFORM_KS if 600 * (k - 1) >= 2**63])
def test_block_sampler_reads_64_bit_draws_up_to_the_int64_bound(generator_spy, k):
    # m = 1 is the only m these k allow; (2**64 + 2) // 3 re-reads about half of the rows
    model, n, seed = wp.Model.uniform(k), 2 * sim._BLOCK_ROWS + 3, 2**64 - 1
    want = [abs(int(b) - int(a))
            for a, b in (wp.sample_letters(model, wp.trajectory_rng(seed, l), 2) for l in range(n))]
    generator_spy.clear()
    ens = wp.simulate(wp.SimulationConfig(model=model, m=1, trajectories=n, seed=seed))
    assert generator_spy == []
    assert ens.endpoints.tolist() == want


def lemire_letters(words, k: int, size: int) -> list[int]:
    """The first ``size`` letters of numpy's ``integers(1, k + 1)`` on raw 64-bit words.

    numpy's rule (Lemire's), in Python ints: b-bit draws d, b = 32 (the low
    half of each word first) for k <= 2**32, else b = 64; d is rejected where
    d*k mod 2**b < (2**b - k) mod k, else its letter is (d*k >> b) + 1.
    """
    b = 32 if k <= 2**32 else 64
    draws = [int(w) >> s & (2**b - 1) for w in words for s in range(0, 64, b)]
    return [(d * k >> b) + 1 for d in draws if d * k % 2**b >= (2**b - k) % k][:size]


@pytest.mark.parametrize("k", [7, 2**31 + 1, 2**40 + 3])
def test_uniform_rule_rejects_exactly_the_draws_below_the_threshold(monkeypatch, k):
    # A draw d is rejected where d*k mod 2**b < t = (2**b - k) mod k.  A Philox
    # draw lands on t - 1 or t about once in 2**b, so the first draws of each
    # path are placed there (k is odd: d = low / k mod 2**b has d*k mod 2**b = low).
    b = 32 if k <= 2**32 else 64
    t = (2**b - k) % k
    lows = [[t, t - 1, t + 1, t + 2], [t + 1, t, t + 2, t + 3], [0, t, t + 1, t + 2]]
    streams = [np.concatenate([
        np.array([low * pow(k, -1, 2**b) % 2**b for low in row], dtype=f"<u{b // 8}").view("<u8"),
        np.random.Philox(key=[5, l]).random_raw(40),  # the words a re-read goes on to
    ]) for l, row in enumerate(lows)]

    class GivenWords:
        """numpy's Philox as the sampler uses it; the stream of key (seed, l) is ``streams[l]``."""

        def __init__(self, key):
            self.state = {"state": {"key": key}}

        def _start(self, state):  # the state of a key, at its first word
            self.words, self.pos = streams[int(state["state"]["key"][1])], 0

        state = property(None, _start)

        def random_raw(self, n):
            self.pos += n
            return self.words[self.pos - n : self.pos]

    want = [lemire_letters(words, k, 4) for words in streams]
    for l in range(3):
        letters = np.empty(4, dtype=np.int64)
        sim._uniform_row(GivenWords([0, l]), k, 4, letters)
        assert (letters + 1).tolist() == want[l]
    monkeypatch.setattr(np.random, "Philox", GivenWords)
    ens = wp.simulate(wp.SimulationConfig(model=wp.Model.uniform(k), m=3, trajectories=3, seed=0,
                                          record_full_paths=True))
    assert ens.paths[:, 1:].tolist() == np.cumsum(np.abs(np.diff(want)), axis=1).tolist()
