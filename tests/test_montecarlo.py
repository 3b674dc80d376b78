"""Sampling validators and trace rendering."""

from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from cvswap import (
    ExperimentParams,
    GainSpec,
    GaussianModel,
    build_network,
    estimate_variance,
    montecarlo,
    render_trace,
    run_experiment,
    write_trace_csv,
)
from cvswap.montecarlo import DEFAULT_N_PER_POINT, RNG_ALGORITHM, TRACE_KINDS, TraceSeries
from cvswap.params import _NUMERIC_FIELDS
from cvswap.swap import READ_OUTS, noise, single_mode_noise
from conftest import make_lab_params

V_LAB = 0.718796855333


def test_default_averaging_depth_from_bandwidths():
    assert DEFAULT_N_PER_POINT == 333  # round(10 kHz / 30 Hz)


def test_vacuum_estimate_within_three_stderr():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    est, se = estimate_variance(m, m.x_form("v1"), 100_000, seed=3)
    assert se > 0
    assert abs(est - 1.0) <= 3 * se
    # standard error of a Gaussian mean-square is ~ sqrt(2/n)
    assert se == pytest.approx(math.sqrt(2 / 100_000), rel=0.2)


def test_estimate_is_deterministic(lab_params):
    model, handles = build_network(lab_params)
    a = estimate_variance(model, handles.victor_plus, 50_000, seed=42)
    b = estimate_variance(model, handles.victor_plus, 50_000, seed=42)
    assert a == b


def test_estimates_with_different_seeds_agree(lab_params):
    model, handles = build_network(lab_params)
    est1, se1 = estimate_variance(model, handles.victor_plus, 200_000, seed=1)
    est2, se2 = estimate_variance(model, handles.victor_plus, 200_000, seed=2)
    assert est1 != est2
    assert abs(est1 - est2) <= 3 * math.hypot(se1, se2)
    assert abs(est1 - V_LAB) <= 3 * se1


def test_estimate_rejects_tiny_sample_counts(lab_params):
    model, handles = build_network(lab_params)
    with pytest.raises(ValueError, match="at least 2"):
        estimate_variance(model, handles.victor_plus, 1, seed=0)


def test_estimate_rejects_a_batched_model_first():
    # a model of two draws has one variance per draw; the estimate takes one, and says so
    # before it draws or checks its sample count
    lab = make_lab_params(gain=GainSpec("fixed", 0.74))
    batch = ExperimentParams(**{name: getattr(lab, name) * np.ones(2) for name in _NUMERIC_FIELDS},
                             gain=lab.gain)
    model, handles = build_network(batch)
    for n in (1, 1000):
        with pytest.raises(ValueError, match="^estimate_variance takes one parameter point, "
                                             "not a batch of draws$"):
            estimate_variance(model, handles.victor_plus, n, seed=0)


def test_estimate_chunking_is_seamless(lab_params):
    # crossing the internal chunk boundary leaves the stream of one unchunked draw
    model, handles = build_network(lab_params)
    big = (1 << 17) + 123
    est, se = estimate_variance(model, handles.victor_plus, big, seed=9)
    z = np.random.default_rng(9).standard_normal(big)
    assert est == pytest.approx(model.variance(handles.victor_plus) * np.mean(z * z), rel=1e-12)
    assert abs(est - V_LAB) <= 4 * se


@pytest.mark.parametrize(
    ("kind", "seed"),
    [("correlated", 61), ("blocked", 62), ("single_mode_a", 63), ("single_mode_dprime", 64)],
)
def test_estimate_matches_network_variance_per_kind(lab_params, kind, seed):
    handle, blocked = READ_OUTS[kind]
    model, handles = build_network(dataclasses.replace(lab_params, channel_blocked=blocked))
    form = getattr(handles, handle)
    est, se = estimate_variance(model, form, 200_000, seed=seed)
    assert abs(est - model.variance(form)) <= 4 * se


# the public read-out each trace kind samples, as benchmarks/workloads.py checks it
_PUBLIC = {
    "correlated": lambda p: run_experiment(p).v_plus,
    "blocked": lambda p: run_experiment(dataclasses.replace(p, channel_blocked=True)).v_plus,
    "single_mode_a": lambda p: single_mode_noise(p, "a"),
    "single_mode_dprime": lambda p: single_mode_noise(p, "dprime"),
    "snl": lambda p: 1.0,
}


@pytest.mark.parametrize("gain", [GainSpec("optimal"), GainSpec("fixed", 1.6)])
@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_trace_form_is_the_public_read_out(kind, gain):
    params = make_lab_params(gain=gain)
    assert noise(params, kind) == _PUBLIC[kind](params)


# -- traces ------------------------------------------------------------------------


def test_render_trace_snl_sits_at_zero_db(lab_params):
    trace = render_trace(lab_params, "snl", points=40, seed=5, n_per_point=4000)
    assert trace.pooled_db() == pytest.approx(0.0, abs=0.1)
    assert len(trace.powers) == 40


def test_render_trace_correlated_mean(lab_params):
    trace = render_trace(lab_params, "correlated", points=40, seed=6, n_per_point=4000)
    assert trace.pooled_db() == pytest.approx(-1.43, abs=0.1)


def test_render_trace_blocked_mean(lab_params):
    trace = render_trace(lab_params, "blocked", points=40, seed=7, n_per_point=4000)
    assert trace.pooled_db() == pytest.approx(2.10, abs=0.1)


def test_render_trace_deterministic(lab_params):
    t1 = render_trace(lab_params, "correlated", points=10, seed=8)
    t2 = render_trace(lab_params, "correlated", points=10, seed=8)
    assert t1.powers == t2.powers
    t3 = render_trace(lab_params, "correlated", points=10, seed=9)
    assert t3.powers != t1.powers


def test_render_trace_respects_fixed_gain():
    params = make_lab_params(gain=GainSpec("fixed", 0.0))
    trace = render_trace(params, "correlated", points=30, seed=10, n_per_point=4000)
    # zero gain is the blocked spectrum
    assert trace.pooled_db() == pytest.approx(2.10, abs=0.1)


def test_trace_separates_well_spaced_kinds(lab_params):
    # single-mode > SNL > correlated by wide margins; the blocked-vs-single
    # split is a fraction of a percent and is resolved in the acceptance suite
    kw = dict(points=30, seed=11, n_per_point=10_000)
    single_a = render_trace(lab_params, "single_mode_a", **kw).linear_mean()
    single_d = render_trace(lab_params, "single_mode_dprime", **kw).linear_mean()
    snl = render_trace(lab_params, "snl", **kw).linear_mean()
    correlated = render_trace(lab_params, "correlated", **kw).linear_mean()
    assert single_a > snl > correlated
    assert single_d > snl
    assert snl == pytest.approx(1.0, abs=0.02)


def test_render_trace_rejects_bad_arguments(lab_params):
    with pytest.raises(ValueError, match="unknown trace kind"):
        render_trace(lab_params, "sideways", points=5, seed=0)
    with pytest.raises(ValueError, match="at least 1 point"):
        render_trace(lab_params, "snl", points=0, seed=0)
    with pytest.raises(ValueError, match="n_per_point"):
        render_trace(lab_params, "snl", points=5, seed=0, n_per_point=0)


def test_trace_metadata_records_provenance(lab_params):
    trace = render_trace(lab_params, "correlated", points=3, seed=12, n_per_point=50)
    assert "PCG64" in trace.metadata["rng"]
    assert trace.metadata["seed"] == 12
    assert trace.metadata["n_per_point"] == 50
    assert trace.metadata["params"]["r1"] == lab_params.r1
    assert "sideband_model" in trace.metadata


def test_trace_is_one_gamma_draw_per_point(lab_params):
    # point k is V times the k-th Gamma(n/2, scale 2/n) draw of one stream
    trace = render_trace(lab_params, "correlated", points=3, seed=14, n_per_point=500)
    v = noise(lab_params, "correlated")
    draws = np.random.default_rng(14).gamma(500 / 2, 2 / 500, 3)
    assert trace.powers == [v * d for d in draws]


@pytest.mark.parametrize(("n", "seed"), [(1, 71), (2, 72), (50, 73), (333, 74)])
def test_trace_point_has_the_law_of_a_mean_of_squared_normals(lab_params, n, seed):
    # the Gamma draw stands for the mean of n squared unit normals: same law, not same stream
    stats = pytest.importorskip("scipy.stats")
    points = 4000
    trace = render_trace(lab_params, "correlated", points=points, seed=seed, n_per_point=n)
    v = noise(lab_params, "correlated")
    powers = np.array(trace.powers) / v
    z = np.random.default_rng(seed + 1000).standard_normal((points, n))
    assert stats.ks_2samp(powers, np.mean(z * z, axis=1)).pvalue > 0.01
    # chi2_n / n has mean 1, variance 2/n and excess kurtosis 12/n
    assert abs(powers.mean() - 1.0) <= 5 * math.sqrt(2 / n / points)
    assert abs(powers.var(ddof=1) - 2 / n) <= 5 * (2 / n) * math.sqrt((2 + 12 / n) / points)


def test_sidecar_names_single_draw_stream(tmp_path, lab_params):
    trace = render_trace(lab_params, "blocked", points=2, seed=15, n_per_point=50)
    meta = yaml.safe_load(write_trace_csv(trace, tmp_path / "trace.csv").read_text())
    assert meta["rng"] == RNG_ALGORITHM
    assert "one Gamma(n_per_point/2, scale 2/n_per_point) draw per point" in meta["rng"]


@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_sidecar_bytes_match_safe_dump(tmp_path, lab_params, kind):
    # libyaml, where present, writes the same bytes as PyYAML's pure-Python safe_dump
    trace = render_trace(lab_params, kind, points=2, seed=16, n_per_point=50)
    sidecar = write_trace_csv(trace, tmp_path / "trace.csv")
    assert sidecar.read_text() == yaml.safe_dump(trace.metadata, sort_keys=True)


def test_trace_csv_roundtrip_and_sidecar(tmp_path, lab_params):
    trace = render_trace(lab_params, "snl", points=5, seed=13, n_per_point=100)
    out = tmp_path / "trace.csv"
    sidecar = write_trace_csv(trace, out)
    text = out.read_text()
    assert text.splitlines()[0] == "point_index,db_value"
    assert len(text.splitlines()) == 6
    # one row per point, in point order, each the point's power in dB
    rows = list(csv.reader(text.splitlines()[1:]))
    assert [int(index) for index, _ in rows] == list(range(5))
    assert [float(db) for _, db in rows] == [10.0 * math.log10(p) for p in trace.powers]
    meta = yaml.safe_load(sidecar.read_text())
    assert meta["seed"] == 13
    assert meta["kind"] == "snl"
    # byte-identical on re-render with the same seed
    again = render_trace(lab_params, "snl", points=5, seed=13, n_per_point=100)
    out2 = tmp_path / "trace2.csv"
    write_trace_csv(again, out2)
    assert out2.read_bytes() == out.read_bytes()


def test_all_trace_kinds_render(lab_params):
    for kind in TRACE_KINDS:
        trace = render_trace(lab_params, kind, points=2, seed=1, n_per_point=50)
        assert len(trace.powers) == 2
        assert all(0.0 < power < math.inf for power in trace.powers)  # a finite dB value


# -- the trace writer's bytes ------------------------------------------------------


def _csv_writer_bytes(powers) -> bytes:
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["point_index", "db_value"])
    for index, power in enumerate(powers):
        writer.writerow([index, repr(10 * math.log10(power))])
    return expected.getvalue().encode()


@pytest.mark.parametrize("points", [1, 2, 57])
@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_trace_csv_bytes_match_csv_writer(tmp_path, lab_params, kind, points):
    trace = render_trace(lab_params, kind, points=points, seed=17)
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == _csv_writer_bytes(trace.powers)


def test_trace_csv_bytes_match_csv_writer_far_from_snl(tmp_path):
    # negative and positive dB, short and long reprs, the ends of the float range
    powers = [0.5, 1.0, 3.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.7188, 10.0]
    write_trace_csv(TraceSeries(powers, {"kind": "snl"}), tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == _csv_writer_bytes(powers)


@pytest.mark.parametrize("gain", [GainSpec("optimal"), GainSpec("fixed", 0.74)])
def test_sidecar_params_match_asdict(tmp_path, gain):
    params = make_lab_params(gain=gain, channel_blocked=gain.mode == "fixed", enl_db=11.3)
    trace = render_trace(params, "correlated", points=2, seed=18)
    assert list(trace.metadata["params"].items()) == list(dataclasses.asdict(params).items())
    meta = yaml.safe_load(write_trace_csv(trace, tmp_path / "trace.csv").read_text())
    assert meta["params"] == dataclasses.asdict(params)


# strings the resolver reads as another type must stay quoted; long ones fold
_TYPED_TEXT = ["true", "null", "123", "1e3", "=", "", "~", "No", "0x1f", ".inf", "-.5", "1_000",
               "2001-12-14", "<<", "3.", "1:20", "- a", "a: b", "#x", " lead", "trail "]
_WORDS = st.sampled_from(["gamma", "1e3", "true", "a:", "#", "x" * 40, "-", "'q'", '"dq"'])
_TEXT = (st.sampled_from(_TYPED_TEXT) | st.text(max_size=12)
         | st.lists(_WORDS, min_size=12, max_size=30).map(" ".join))
_FLOATS = [1e-05, 1e16, -0.0, 1e300, 5e-324, 1e22, 0.1, math.inf, -math.inf, math.nan]
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(min_value=10**18)
           | st.floats() | st.sampled_from(_FLOATS) | _TEXT)
_METADATA = st.dictionaries(
    _TEXT, st.recursive(_LEAVES, lambda tree: st.dictionaries(_TEXT, tree, max_size=3),
                        max_leaves=6),
    max_size=6)


def _sidecars(metadata: dict, directory) -> list[str]:
    """The sidecars of two writes of ``metadata``: the first dumps the layout, the second
    fills it in."""
    montecarlo._layout.cache_clear()
    try:
        return [write_trace_csv(TraceSeries([1.0], metadata), directory / "trace.csv")
                .read_text() for _ in range(2)]
    finally:
        montecarlo._layout.cache_clear()


@settings(derandomize=True, deadline=None)
@given(metadata=_METADATA)
@example(metadata={})
@example(metadata={"params": {}, "e": {"deep": {"deeper": {"x": 1e-05}}}, "n": 10**40})
# a key and a string leaf that write the first slot marker
@example(metadata={"slot0": 1, "x": "slot0", "e": {"slot0": "slot1", "n": None}})
@example(metadata={"tiny": 5e-324, "inf": math.inf, "-inf": -math.inf, "nan": math.nan,
                   "big": 10**300, "e": {"tiny": -5e-324, "big": -10**300}})
# an empty key, which libyaml's emitter writes as '': where safe_dump writes ? ''
@example(metadata={"": None, "e": {"": 1.5}})
def test_sidecar_events_emit_safe_dump_text(tmp_path_factory, metadata):
    expected = yaml.safe_dump(metadata, sort_keys=True)
    assert _sidecars(metadata, tmp_path_factory.getbasetemp()) == [expected, expected]


def test_sidecar_events_reject_values_outside_the_tree_shape(tmp_path):
    with pytest.raises(yaml.representer.RepresenterError):
        yaml.safe_dump({"x": np.float64(1.0)})
    # safe_dump writes lists, tuples and int keys; a key of 1 would share a layout with True
    for metadata in ({"x": np.float64(1.0)}, {"x": [1, 2]}, {"x": (1,)}, {1: "x"}):
        with pytest.raises(yaml.representer.RepresenterError):
            write_trace_csv(TraceSeries([1.0], metadata), tmp_path / "trace.csv")
    assert list(tmp_path.iterdir()) == []  # no CSV without its sidecar


def test_second_sidecar_of_a_layout_emits_nothing(tmp_path, lab_params):
    montecarlo._layout.cache_clear()
    first = render_trace(lab_params, "correlated", points=2, seed=19)
    write_trace_csv(first, tmp_path / "first.csv")
    assert montecarlo._layout.cache_info().misses == 1
    # other numbers, same keys and strings: the layout is filled in, not dumped again
    second = render_trace(lab_params, "correlated", points=3, seed=20, n_per_point=7)
    sidecar = write_trace_csv(second, tmp_path / "second.csv")
    assert montecarlo._layout.cache_info()[:2] == (1, 1)  # one hit, one miss
    assert sidecar.read_text() == yaml.safe_dump(second.metadata, sort_keys=True)


def test_trace_of_numpy_scalar_params_writes_python_numbers(tmp_path):
    # a row taken from a batch holds numpy scalars; the echo holds the Python numbers they equal
    lab = make_lab_params(enl_db=11.3)
    row = dataclasses.replace(lab, gain=GainSpec("fixed", np.float64(0.7)),
                              channel_blocked=np.bool_(False), enl_db=np.float64(11.3),
                              **{name: np.float64(getattr(lab, name)) for name in _NUMERIC_FIELDS})
    trace = render_trace(row, "correlated", points=2, seed=23)
    echo = trace.metadata["params"]
    assert echo == dataclasses.asdict(row)
    assert {type(echo[name]) for name in (*_NUMERIC_FIELDS, "enl_db")} == {float}
    assert (type(echo["channel_blocked"]), type(echo["gain"]["value"])) == (bool, float)
    sidecar = write_trace_csv(trace, tmp_path / "trace.csv")
    assert sidecar.read_text() == yaml.safe_dump(trace.metadata, sort_keys=True)


def test_network_sidecars_of_both_gain_modes_match_safe_dump(tmp_path):
    # four layouts in one process, each written twice: emitted, then filled in
    montecarlo._layout.cache_clear()
    for gain in (GainSpec("optimal"), GainSpec("fixed", 0.74)):
        params = make_lab_params(gain=gain, enl_db=11.3)
        for kind in ("correlated", "blocked"):
            for seed in (21, 22):
                trace = render_trace(params, kind, points=2, seed=seed)
                sidecar = write_trace_csv(trace, tmp_path / f"{kind}-{gain.mode}-{seed}.csv")
                assert sidecar.read_text() == yaml.safe_dump(trace.metadata, sort_keys=True)
