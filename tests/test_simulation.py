import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordperim as wp
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
    # checked before anything is allocated: 3 GiB of paths are never requested
    cfg = small_config(m=2, trajectories=2**27, record_full_paths=True)
    with pytest.raises(wp.MemoryBudgetExceeded, match="recording 134217728 paths of length 3 "
                       "needs 3221225472 bytes, budget is 2147483648"):
        wp.simulate(cfg)


def test_endpoint_memory_budget_refusal():
    # N = 10**14 endpoints and z would take 1.6e15 bytes
    with pytest.raises(wp.MemoryBudgetExceeded, match="1600000000000000 bytes, budget is 2147483648"):
        wp.simulate(small_config(m=1, trajectories=10**14))


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


def test_normalized_path_validation():
    ens = wp.simulate(small_config())
    with pytest.raises(ValueError, match="paths"):
        wp.normalized_path(ens, 0, [0.5])
    with_paths = wp.simulate(small_config(record_full_paths=True))
    with pytest.raises(IndexError):
        wp.normalized_path(with_paths, 10**6, [0.5])
    with pytest.raises(ValueError):
        wp.normalized_path(with_paths, 0, [1.5])


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


def test_endpoint_csv_round_trip(tmp_path):
    ens = wp.simulate(small_config())
    path = tmp_path / "ens.csv"
    sim.write_endpoint_csv(ens, path)
    data = sim.read_endpoint_csv(path)
    assert np.array_equal(data["endpoint"], ens.endpoints)
    assert np.array_equal(data["z"], ens.z)  # repr round-trips floats exactly
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
    doc = sim.read_config_sidecar(path)
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

    data = sim.read_endpoint_csv(e_csv)
    assert np.array_equal(data["trajectory"], np.arange(n))
    assert np.array_equal(data["endpoint"], ens.endpoints)
    assert np.array_equal(data["z"], ens.z)
    assert np.array_equal(sim.read_path_csv(p_csv), ens.paths)


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


@pytest.mark.parametrize("body, problem", [
    ("", "no data rows"),
    ("0,0,0\n", "j = 0"),                                # one cell: m = 0
    ("0,0,0\n0,1\n", "2 were found"),                    # short row
    ("0,0,0\n0,1,1,1\n", "4 were found"),                # long row
    ("0,0,0\n0,-1,5\n0,1,3\n", "line 3: trajectory 0, j -1"),  # negative j
    ("0,0,0\n0,1,1\n0,2,3\n1,0,0\n1,2,4\n", "line 6: trajectory 1, j 2"),  # missing row
    ("0,0,0\n0,2,3\n0,1,1\n", "line 3: trajectory 0, j 2"),                # out of order
    ("0,0,0\n0,1,1\n2,0,0\n2,1,1\n", "line 4: trajectory 2, j 0"),        # missing path
    ("0,0,0\n0,1,1\n10000000000000,0,0\n10000000000000,1,1\n", "line 4"),  # stray index
    ("0,0,0\n0,1,x\n", "could not convert"),
    ("0,0,0\n0,1\n0,2,2\n", "line 3: .*2 were found"),   # short row, file line 3
    ("0,0,0\n0,x,1\n0,2,2\n", "line 3: could not convert string 'x'"),  # non-numeric cell
    ("0,0,0\n\n0,1,x\n", "line 4: could not convert"),  # blank lines count as file lines
])
def test_read_path_csv_rejects_malformed(tmp_path, body, problem):
    bad = tmp_path / "bad.csv"
    bad.write_text("trajectory,j,Q\n" + body)
    with pytest.raises(ValueError, match=problem):
        sim.read_path_csv(bad)


@pytest.mark.parametrize(
    "body", ["", "0,1\n", "0,1,0.5,7\n", "0,1,0.5\n1,x,0.5\n", "0,1,0.5\n1,2\n"]
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
}


@pytest.mark.parametrize(
    "model", [U6, wp.Model.geometric(Fraction(1, 2)), wp.Model.uniform(2**31 + 1)],
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


EQUIVALENCE_MODELS = [
    wp.Model.uniform(1),
    wp.Model.uniform(2),
    U6,
    wp.Model.uniform(2**31 + 1),  # about half of all draws are Lemire rejections
    wp.Model.uniform(2**33),      # numpy draws 64-bit words: scalar path only
    wp.Model.geometric(Fraction(1, 1000)),
    wp.Model.geometric(Fraction(1, 2)),
    wp.Model.geometric(Fraction(999, 1000)),
]


@pytest.mark.parametrize("model", EQUIVALENCE_MODELS, ids=lambda model: model.describe())
@pytest.mark.parametrize("m", [1, 7, 50, 600])  # m = 600: a block buffer is above 128 KiB
def test_block_sampler_equals_scalar_path(monkeypatch, model, m):
    calls = []

    def counting_rng(seed, index):
        calls.append(index)
        return wp.trajectory_rng(seed, index)

    monkeypatch.setattr(sim, "trajectory_rng", counting_rng)
    n = 2 * sim._BLOCK_ROWS + 3
    seed = 2**64 - 1  # the largest Philox key
    cfg = dict(model=model, m=m, trajectories=n, seed=seed)
    ends = wp.simulate(wp.SimulationConfig(**cfg))
    with_paths = wp.simulate(wp.SimulationConfig(**cfg, record_full_paths=True))
    fallback_rows = len(calls) // 2

    want = np.array([
        np.cumsum(np.abs(np.diff(wp.sample_letters(model, wp.trajectory_rng(seed, l), m + 1))))
        for l in range(n)
    ])
    assert np.array_equal(with_paths.paths[:, 0], np.zeros(n))
    assert np.array_equal(with_paths.paths[:, 1:], want)
    for ens in (ends, with_paths):
        assert np.array_equal(ens.endpoints, want[:, -1])
        ref_z = np.zeros(n) if ens.degenerate_scale else (
            (want[:, -1] - float(m * ens.mean_gap)) / (ens.sigma * math.sqrt(m)))
        assert np.array_equal(ens.z, ref_z)
    if model.k == 2**31 + 1:
        # rows with a rejected draw take the scalar path; at m = 1 some have none
        assert 0 < fallback_rows and (m > 1 or fallback_rows < n)
    elif model.k == 2**33:
        assert fallback_rows == n
    else:
        assert fallback_rows == 0
